// Package workload implements the paper's fine-grain workload model
// (§3.1): local processor activity is a sequence of run and idle bursts
// whose durations follow two-stage hyperexponential distributions
// parameterized by the average CPU utilization over a two-second window.
//
// The paper measures AIX scheduler-dispatch traces, splits them into 21
// utilization buckets (0%..100% in 5% steps), and fits the run/idle burst
// durations in each bucket with a method-of-moments hyperexponential
// (Figure 2). The bucket parameter curves are published in Figure 3. We
// reproduce the model from those curves: DefaultTable is calibrated so the
// run-burst mean/variance track Figure 3, and the idle-burst mean is
// derived from the self-consistency constraint
//
//	utilization = runMean / (runMean + idleMean)
//
// so that generated windows actually exhibit their labelled utilization.
// (The paper's published idle means are slightly inconsistent with that
// identity because its utilizations were measured over fixed 2-second
// windows; DESIGN.md §2 records this calibration difference.)
package workload

import (
	"fmt"

	"lingerlonger/internal/stats"
)

// Params are the fine-grain burst parameters for one utilization level.
type Params struct {
	Utilization float64 // mean CPU utilization of the window, in [0, 1]
	RunMean     float64 // mean run-burst duration, seconds
	RunVar      float64 // run-burst variance, seconds^2
	IdleMean    float64 // mean idle-burst duration, seconds
	IdleVar     float64 // idle-burst variance, seconds^2
}

// PureIdle reports whether the level has no run bursts at all (utilization
// ~0): the processor is continuously available.
func (p Params) PureIdle() bool { return p.RunMean == 0 }

// PureBusy reports whether the level has no idle bursts at all (utilization
// ~1): the processor is continuously occupied by local work.
func (p Params) PureBusy() bool { return !p.PureIdle() && p.IdleMean == 0 }

// Table maps utilization to burst parameters with linear interpolation
// between calibrated buckets, exactly as the paper interpolates "between
// the two closest of the 21 levels of utilization".
type Table struct {
	buckets []Params // ascending in Utilization, first at 0, last at 1
}

// Buckets returns a copy of the calibration buckets.
func (t *Table) Buckets() []Params {
	out := make([]Params, len(t.buckets))
	copy(out, t.buckets)
	return out
}

// NumBuckets returns the number of calibration buckets.
func (t *Table) NumBuckets() int { return len(t.buckets) }

// pureIdleGapMean is the mean idle-burst length used when there are no run
// bursts at all; it only sets the event granularity of fully-idle windows.
const pureIdleGapMean = 0.030

// minActiveUtil and maxActiveUtil bound the region where both run and idle
// bursts exist. Below/above, the window is treated as pure idle/busy.
const (
	minActiveUtil = 0.005
	maxActiveUtil = 0.995
)

// DefaultTable returns the Figure 3 calibration: 21 buckets from 0% to
// 100% utilization in 5% steps. The idle-burst mean decreases from ~90 ms
// toward 0 as utilization grows; run-burst means follow from the
// utilization identity and grow convexly to 250 ms at 100% (matching the
// Figure 3 top-left curve: ~10 ms at 10%, ~50 ms at 50%, 250 ms at 100%).
// Squared CVs sit in [1.4, 1.6] so the hyperexponential fit is
// well-defined.
func DefaultTable() *Table {
	// Idle-burst means per bucket, seconds, strictly decreasing (Figure 3
	// bottom-left shape). Index i is utilization i*5%.
	idleMeans := []float64{
		pureIdleGapMean, // 0%: pure idle, gap sets event granularity only
		0.090,           // 5%
		0.085,           // 10%
		0.080,
		0.075,
		0.070,
		0.066,
		0.062,
		0.058,
		0.054,
		0.050, // 50%
		0.046,
		0.042,
		0.039,
		0.036,
		0.033,
		0.030,
		0.027,
		0.023,
		0.013,
		0, // 100%: pure busy
	}
	// The float64 conversions here, in ParamsAt and in lerp round each
	// product before its addition, so FMA architectures build the same
	// table as amd64 (DESIGN.md §8).
	buckets := make([]Params, len(idleMeans))
	for i, im := range idleMeans {
		u := float64(float64(i) * 0.05)
		p := Params{Utilization: u, IdleMean: im}
		runCV2 := 1.6 - float64(0.2*u)  // squared CV of run bursts
		idleCV2 := 1.5 - float64(0.2*u) // squared CV of idle bursts
		switch i {
		case 0:
			p.IdleVar = idleCV2 * im * im
		case len(idleMeans) - 1:
			p.RunMean = 0.250 // Figure 3: 250 ms run bursts at full load
			p.RunVar = runCV2 * p.RunMean * p.RunMean
		default:
			p.RunMean = im * u / (1 - u)
			p.RunVar = runCV2 * p.RunMean * p.RunMean
			p.IdleVar = idleCV2 * im * im
		}
		buckets[i] = p
	}
	return &Table{buckets: buckets}
}

// ParamsAt returns interpolated parameters for utilization u, clamped to
// [0, 1]. Within the active region the run-burst mean and both squared CVs
// interpolate linearly between the neighbouring buckets and the idle mean
// is derived from the utilization identity, so a long burst sequence at
// ParamsAt(u) has expected utilization u.
func (t *Table) ParamsAt(u float64) Params {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	if u < minActiveUtil {
		p := t.buckets[0]
		p.Utilization = u
		return p
	}
	if u > maxActiveUtil {
		p := t.buckets[len(t.buckets)-1]
		p.Utilization = u
		return p
	}

	// Locate the bracketing buckets. Bucket 0 is pure idle, so the active
	// interpolation runs over buckets[1:].
	step := 1.0 / float64(len(t.buckets)-1)
	lo := int(u / step)
	if lo >= len(t.buckets)-1 {
		lo = len(t.buckets) - 2
	}
	hi := lo + 1
	frac := (u - float64(float64(lo)*step)) / step

	runMean := lerp(t.buckets[lo].RunMean, t.buckets[hi].RunMean, frac)
	runCV2 := lerp(cv2(t.buckets[lo].RunMean, t.buckets[lo].RunVar),
		cv2(t.buckets[hi].RunMean, t.buckets[hi].RunVar), frac)
	idleCV2 := lerp(cv2(t.buckets[lo].IdleMean, t.buckets[lo].IdleVar),
		cv2(t.buckets[hi].IdleMean, t.buckets[hi].IdleVar), frac)
	if lo == 0 {
		// Below the first active bucket the run-burst length floors at the
		// bucket-1 value: near-zero utilization means fewer daemon
		// wakeups, not infinitesimally short ones. Interpolating toward
		// zero-length bursts would make the per-burst context-switch
		// penalty (and so the owner's delay ratio) blow up unphysically.
		runMean = t.buckets[1].RunMean
		runCV2 = cv2(t.buckets[1].RunMean, t.buckets[1].RunVar)
		idleCV2 = cv2(t.buckets[1].IdleMean, t.buckets[1].IdleVar)
	}

	idleMean := runMean * (1 - u) / u
	return Params{
		Utilization: u,
		RunMean:     runMean,
		RunVar:      runCV2 * runMean * runMean,
		IdleMean:    idleMean,
		IdleVar:     idleCV2 * idleMean * idleMean,
	}
}

// cv2 returns the squared coefficient of variation, defaulting to 1.5 when
// the mean is zero (pure idle/busy bucket, where the value is unused except
// through interpolation).
func cv2(mean, variance float64) float64 {
	if mean == 0 {
		return 1.5
	}
	return variance / (mean * mean)
}

func lerp(a, b, frac float64) float64 { return a + float64((b-a)*frac) }

// WithSquaredCV returns a copy of the table whose run and idle burst
// variances are replaced so every bucket has the given squared
// coefficients of variation. It is the ablation hook for studying how
// burst-duration variability (hyperexponential, CV^2 > 1) versus
// exponential bursts (CV^2 = 1) affects the results; values below 1 are
// clamped to 1 by the hyperexponential fit downstream.
func (t *Table) WithSquaredCV(runCV2, idleCV2 float64) *Table {
	buckets := t.Buckets()
	for i := range buckets {
		buckets[i].RunVar = runCV2 * buckets[i].RunMean * buckets[i].RunMean
		buckets[i].IdleVar = idleCV2 * buckets[i].IdleMean * buckets[i].IdleMean
	}
	return &Table{buckets: buckets}
}

// Scaled returns a copy of the table with every burst mean multiplied by
// factor (variances scale by factor^2, preserving the CVs). Shrinking the
// bursts toward zero approaches a fluid processor-sharing model — the
// ablation baseline for the two-level workload composition.
func (t *Table) Scaled(factor float64) *Table {
	if factor <= 0 {
		panic(fmt.Sprintf("workload: non-positive scale factor %g", factor))
	}
	buckets := t.Buckets()
	for i := range buckets {
		buckets[i].RunMean *= factor
		buckets[i].RunVar *= factor * factor
		buckets[i].IdleMean *= factor
		buckets[i].IdleVar *= factor * factor
	}
	return &Table{buckets: buckets}
}

// Validate checks the table's structural invariants: buckets ascending,
// utilization identity within tolerance, CVs >= 1 wherever a burst exists.
func (t *Table) Validate() error {
	if len(t.buckets) < 2 {
		return fmt.Errorf("workload: table needs >= 2 buckets, has %d", len(t.buckets))
	}
	for i, b := range t.buckets {
		if i > 0 && b.Utilization <= t.buckets[i-1].Utilization {
			return fmt.Errorf("workload: bucket %d utilization %g not ascending", i, b.Utilization)
		}
		if b.RunMean < 0 || b.IdleMean < 0 || b.RunVar < 0 || b.IdleVar < 0 {
			return fmt.Errorf("workload: bucket %d has negative parameter: %+v", i, b)
		}
		if b.RunMean > 0 && b.IdleMean > 0 {
			implied := b.RunMean / (b.RunMean + b.IdleMean)
			if diff := implied - b.Utilization; diff > 0.02 || diff < -0.02 {
				return fmt.Errorf("workload: bucket %d utilization identity broken: labelled %g, implied %g",
					i, b.Utilization, implied)
			}
		}
		if b.RunMean > 0 && b.RunVar < b.RunMean*b.RunMean*0.999 {
			return fmt.Errorf("workload: bucket %d run CV^2 < 1", i)
		}
		if b.IdleMean > 0 && b.IdleVar < b.IdleMean*b.IdleMean*0.999 {
			return fmt.Errorf("workload: bucket %d idle CV^2 < 1", i)
		}
	}
	if t.buckets[0].Utilization != 0 {
		return fmt.Errorf("workload: first bucket utilization %g, want 0", t.buckets[0].Utilization)
	}
	if last := t.buckets[len(t.buckets)-1].Utilization; last != 1 {
		return fmt.Errorf("workload: last bucket utilization %g, want 1", last)
	}
	return nil
}

// fitOrZero returns the hyperexponential fit for (mean, var), or a
// zero-valued Deterministic distribution when mean is 0.
func fitOrZero(mean, variance float64) stats.Distribution {
	if mean == 0 {
		return stats.Deterministic{Value: 0}
	}
	return stats.MustFitHyperExp2(mean, variance)
}
