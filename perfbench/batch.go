package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"
)

// passOut is what one pass of a batch workload produces.
type passOut struct {
	Output    []byte // the verified output; every pass of a run must produce the same bytes
	Attempted int    // operations attempted, checks included
	Failed    int    // operations that failed or whose output check failed
}

// passFunc runs one complete pass, first call to verified output. tr is
// nil in the untraced run; root is the pass's span, parent of every span
// the pass records. A pass calls brk between its parts: the untraced run
// stops the pass's clock there and times a reference block, so that a
// long pass is compared with the machine's speed during each part rather
// than only at its ends. brk does nothing in the traced run.
type passFunc func(tr *Tracer, root int, brk func()) (*passOut, error)

// batchRun collects the passes of one run.
type batchRun struct {
	Walls     []float64   // untraced pass walls, s, reference blocks excluded
	Parts     [][]float64 // per untraced pass, per part: part wall over the reference blocks around it
	Refs      []float64   // reference blocks, s: one before the first pass and one after each part
	HeapMB    float64     // retained heap, see refKernel.retainedMB
	Attempted int
	Failed    int

	Tracer      *Tracer
	Roots       []int     // root span of each traced pass
	TracedWalls []float64 // s
}

// runBatch repeats pass for the run's measured time: untraced for the
// whole budget, or, in trace mode, untraced for half and traced for the
// other half. Each phase runs at least one pass, and a new pass starts
// while at least half the median pass fits in the phase's budget. Every
// part of an untraced pass is followed by set-ups timed by st and a
// reference block (see refKernel).
func runBatch(cfg runConfig, st *setupTimer, pass passFunc) (*batchRun, error) {
	br := &batchRun{}
	var first []byte
	check := func(p *passOut) {
		br.Attempted += p.Attempted
		br.Failed += p.Failed
		if first == nil {
			first = p.Output
			return
		}
		br.Attempted++
		if !bytes.Equal(first, p.Output) {
			br.Failed++
			logf("pass output differs from the first pass of this run")
		}
	}
	budget := cfg.Seconds
	if cfg.Trace {
		budget /= 2
	}

	st.time(setupFirst)
	ref := newRefKernel()
	br.Refs = append(br.Refs, ref.block(refMin))
	start := time.Now()
	for len(br.Walls) == 0 || fits(start, br.Walls, budget) {
		var wall float64
		var parts []float64
		t0 := time.Now()
		brk := func() {
			part := time.Since(t0).Seconds()
			st.time(setupEach)
			br.Refs = append(br.Refs, ref.block(refBlockFor(part)))
			n := len(br.Refs)
			wall += part
			parts = append(parts, part/((br.Refs[n-2]+br.Refs[n-1])/2))
			t0 = time.Now()
		}
		p, err := pass(nil, 0, brk)
		if err != nil {
			return nil, err
		}
		brk()
		if len(br.Parts) > 0 && len(parts) != len(br.Parts[0]) {
			return nil, fmt.Errorf("pass has %d parts, the first had %d", len(parts), len(br.Parts[0]))
		}
		br.Walls = append(br.Walls, wall)
		br.Parts = append(br.Parts, parts)
		check(p)
	}
	br.HeapMB = ref.retainedMB()
	if st.err != nil {
		return nil, fmt.Errorf("set-up: %w", st.err)
	}
	if !cfg.Trace {
		return br, nil
	}

	br.Tracer = NewTracer()
	start = time.Now()
	for len(br.TracedWalls) == 0 || fits(start, br.TracedWalls, budget) {
		root := br.Tracer.Begin("bench.pass", 0, int64(len(br.Roots)))
		p, err := pass(br.Tracer, root, func() {})
		br.Tracer.End(root)
		if err != nil {
			return nil, err
		}
		br.Roots = append(br.Roots, root)
		spans := br.Tracer.Spans()
		br.TracedWalls = append(br.TracedWalls, spans[root-1].Dur().Seconds())
		check(p)
	}
	if err := CheckNesting(br.Tracer.Spans()); err != nil {
		return nil, fmt.Errorf("span recorder: %w", err)
	}
	return br, nil
}

// fits reports whether at least half the median of walls, in seconds,
// still fits in budget from start.
func fits(start time.Time, walls []float64, budget time.Duration) bool {
	return time.Since(start)+time.Duration(median(walls)/2*float64(time.Second)) <= budget
}

// endToEnd fills the end-to-end metrics of a batch run. wall_rel sums,
// over the parts of a pass, each part's median ratio over the passes, so
// that a burst of the machine's load that one reference block missed
// moves one part of one pass, not the run.
func (br *batchRun) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setupS,
		"wall_rel":         br.wallRel(),
		"retained_heap_mb": br.HeapMB,
	}
}

func (br *batchRun) wallRel() float64 {
	sum := 0.0
	for j := range br.Parts[0] {
		var part []float64
		for _, parts := range br.Parts {
			part = append(part, parts[j])
		}
		sum += median(part)
	}
	return sum
}

// layerMetrics splits the traced pass of median wall along its blocking
// path and reports, per span name, its time on the path as "<name>_s".
// Those times sum to path.sum_s, the pass's traced wall; its excess over
// the untraced wall_s is tracing.overhead_s.
func (br *batchRun) layerMetrics() map[string]float64 {
	order := append([]int(nil), br.Roots...)
	spans := br.Tracer.Spans()
	sort.Slice(order, func(i, j int) bool { return spans[order[i]-1].Dur() < spans[order[j]-1].Dur() })
	mid := order[(len(order)-1)/2]
	m := map[string]float64{}
	sum := 0.0
	for name, d := range BlockingPath(spans, mid) {
		m[name+"_s"] = d.Seconds()
		sum += d.Seconds()
	}
	m["path.sum_s"] = sum
	m["wall_s"] = median(br.Walls)
	m["ref_ms"] = 1000 * median(br.Refs)
	m["tracing.overhead_s"] = sum - median(br.Walls)
	m["error_rate"] = float64(br.Failed) / float64(br.Attempted)
	return m
}
