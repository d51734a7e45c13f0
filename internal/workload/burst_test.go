package workload

import (
	"math"
	"testing"

	"lingerlonger/internal/stats"
)

func TestGeneratorMoments(t *testing.T) {
	table := DefaultTable()
	rng := stats.NewRNG(1)
	for _, u := range []float64{0.1, 0.3, 0.5, 0.8} {
		gen := NewGenerator(table, u, rng)
		p := gen.Params()
		var runW, idleW stats.Welford
		for i := 0; i < 100000; i++ {
			runW.Add(gen.NextRun())
			idleW.Add(gen.NextIdle())
		}
		if math.Abs(runW.Mean()-p.RunMean)/p.RunMean > 0.03 {
			t.Errorf("u=%g: run mean %g, want %g", u, runW.Mean(), p.RunMean)
		}
		if math.Abs(idleW.Mean()-p.IdleMean)/p.IdleMean > 0.03 {
			t.Errorf("u=%g: idle mean %g, want %g", u, idleW.Mean(), p.IdleMean)
		}
		if math.Abs(runW.Var()-p.RunVar)/p.RunVar > 0.10 {
			t.Errorf("u=%g: run var %g, want %g", u, runW.Var(), p.RunVar)
		}
	}
}

func TestMeasuredUtilizationTracksLevel(t *testing.T) {
	table := DefaultTable()
	for _, u := range []float64{0.05, 0.1, 0.2, 0.5, 0.7, 0.9} {
		got := MeasuredUtilization(table, u, 5000, stats.NewRNG(int64(u*1000)))
		if math.Abs(got-u) > 0.03 {
			t.Errorf("MeasuredUtilization(%g) = %g, want within 0.03", u, got)
		}
	}
}

func TestWindowedPureIdleAndBusy(t *testing.T) {
	table := DefaultTable()
	w := NewWindowed(table, ConstantUtilization(0), 2, stats.NewRNG(2))
	b := w.Next()
	if b.Run || b.Duration != 2 {
		t.Errorf("pure idle burst = %+v, want 2s idle", b)
	}
	w2 := NewWindowed(table, ConstantUtilization(1), 2, stats.NewRNG(2))
	b2 := w2.Next()
	if !b2.Run || b2.Duration != 2 {
		t.Errorf("pure busy burst = %+v, want 2s run", b2)
	}
}

func TestWindowedContinuity(t *testing.T) {
	table := DefaultTable()
	w := NewWindowed(table, ConstantUtilization(0.3), 2, stats.NewRNG(3))
	prevEnd := 0.0
	prevRun := false
	first := true
	for i := 0; i < 5000; i++ {
		b := w.Next()
		if b.Duration <= 0 {
			t.Fatalf("non-positive burst duration: %+v", b)
		}
		if math.Abs(b.Start-prevEnd) > 1e-9 {
			t.Fatalf("burst %d not contiguous: start %g, prev end %g", i, b.Start, prevEnd)
		}
		if !first && b.Run == prevRun {
			t.Fatalf("burst %d does not alternate: %+v after run=%v", i, b, prevRun)
		}
		prevEnd = b.End()
		prevRun = b.Run
		first = false
	}
}

// A step-function source: utilization jumps from 0.1 to 0.9 at t=100. The
// generated stream must follow within a window.
type stepSource struct{ at float64 }

func (s stepSource) UtilizationAt(t float64) float64 {
	if t < s.at {
		return 0.1
	}
	return 0.9
}

func TestWindowedFollowsSource(t *testing.T) {
	table := DefaultTable()
	w := NewWindowed(table, stepSource{at: 100}, 2, stats.NewRNG(4))
	var lowRun, lowTotal, highRun, highTotal float64
	for w.Now() < 200 {
		b := w.Next()
		mid := b.Start + b.Duration/2
		switch {
		case mid < 98: // clear of the boundary
			lowTotal += b.Duration
			if b.Run {
				lowRun += b.Duration
			}
		case mid > 102:
			highTotal += b.Duration
			if b.Run {
				highRun += b.Duration
			}
		}
	}
	lowU := lowRun / lowTotal
	highU := highRun / highTotal
	if math.Abs(lowU-0.1) > 0.05 {
		t.Errorf("low-phase utilization = %g, want ~0.1", lowU)
	}
	if math.Abs(highU-0.9) > 0.05 {
		t.Errorf("high-phase utilization = %g, want ~0.9", highU)
	}
}

func TestFig2CurvesMatch(t *testing.T) {
	// The paper: "The curves almost exactly match in run and idle burst
	// distributions." Samples drawn from the fit must agree with the fit.
	table := DefaultTable()
	series := Fig2(table, []float64{0.1, 0.5}, 20000, stats.NewRNG(5))
	if len(series) != 4 {
		t.Fatalf("Fig2 produced %d series, want 4 (run+idle at 10%% and 50%%)", len(series))
	}
	for _, s := range series {
		if s.KSDistance > 0.02 {
			t.Errorf("u=%g run=%v: KS distance %g, want < 0.02", s.Utilization, s.Run, s.KSDistance)
		}
		if len(s.Points) == 0 {
			t.Errorf("u=%g run=%v: no points", s.Utilization, s.Run)
		}
		prev := -1.0
		for _, p := range s.Points {
			if p.Empirical < prev-1e-9 {
				t.Fatalf("u=%g run=%v: empirical CDF not monotone", s.Utilization, s.Run)
			}
			prev = p.Empirical
			if p.Fitted < 0 || p.Fitted > 1 {
				t.Fatalf("fitted CDF out of range: %+v", p)
			}
		}
	}
}

func TestFig3RowsMatchTable(t *testing.T) {
	table := DefaultTable()
	rows := Fig3(table)
	if len(rows) != table.NumBuckets() {
		t.Fatalf("Fig3 rows = %d, want %d", len(rows), table.NumBuckets())
	}
	for i, r := range rows {
		b := table.Buckets()[i]
		if r.RunMean != b.RunMean || r.IdleMean != b.IdleMean {
			t.Errorf("row %d diverges from table", i)
		}
	}
}

// TestFillMatchesSequentialDraws: the batched FillRuns/FillIdles forms
// must consume the RNG exactly like the equivalent sequence of NextRun /
// NextIdle calls, for mixed and degenerate (pure idle / pure busy)
// levels.
func TestFillMatchesSequentialDraws(t *testing.T) {
	table := DefaultTable()
	for _, u := range []float64{0, 0.4, 1} {
		seq := NewGenerator(table, u, stats.NewRNG(11))
		bat := NewGenerator(table, u, stats.NewRNG(11))
		var want [64]float64
		for i := range want {
			want[i] = seq.NextRun()
		}
		var got [64]float64
		bat.FillRuns(got[:])
		if got != want {
			t.Fatalf("u=%g: FillRuns diverged from sequential NextRun", u)
		}
		// The two generators' RNGs are now aligned again; repeat for idles
		// to check the batch leaves the stream in the same state.
		for i := range want {
			want[i] = seq.NextIdle()
		}
		bat.FillIdles(got[:])
		if got != want {
			t.Fatalf("u=%g: FillIdles diverged from sequential NextIdle", u)
		}
	}
}
