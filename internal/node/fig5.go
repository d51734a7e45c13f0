package node

import (
	"math"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// Fig5Point is one point of Figure 5: the impact of lingering on one node
// at one local utilization level and one effective context-switch time.
type Fig5Point struct {
	Utilization   float64 // local CPU utilization (x-axis)
	ContextSwitch float64 // effective context-switch time, seconds
	LDR           float64 // local job delay ratio (Figure 5a)
	FCSR          float64 // fine-grain cycle stealing ratio (Figure 5b)
}

// Fig5Config parameterizes the Figure 5 experiment.
type Fig5Config struct {
	ContextSwitches []float64 // curves; the paper uses 100, 300, 500 µs
	Utilizations    []float64 // x-axis points
	Duration        float64   // simulated seconds per point
	Seed            int64
	// Rec, when non-nil, counts node.preemptions across the sweep.
	// Metrics are outputs only — no simulation decision reads them.
	Rec *obs.Recorder
}

// DefaultFig5Config returns the paper's sweep: context-switch times of
// 100/300/500 µs across local utilizations 0..90% on a single node with a
// compute-bound foreign job.
func DefaultFig5Config() Fig5Config {
	utils := make([]float64, 0, 19)
	for i := 0; i <= 18; i++ {
		utils = append(utils, float64(i)*5/100)
	}
	return Fig5Config{
		ContextSwitches: []float64{100e-6, 300e-6, 500e-6},
		Utilizations:    utils,
		Duration:        2000,
		Seed:            1,
	}
}

// Fig5 runs the Figure 5 experiment: for each context-switch time and each
// utilization level it simulates a single node hosting an always-runnable
// foreign job and reports the owner's delay ratio and the foreign job's
// cycle-stealing ratio.
func Fig5(table *workload.Table, cfg Fig5Config) []Fig5Point {
	rng := stats.NewRNG(cfg.Seed)
	var out []Fig5Point
	for _, cs := range cfg.ContextSwitches {
		for _, u := range cfg.Utilizations {
			n := New(Config{ContextSwitch: cs, Rec: cfg.Rec}, table, workload.ConstantUtilization(u), rng.Split())
			n.ServeForeign(math.Inf(1), cfg.Duration)
			out = append(out, Fig5Point{
				Utilization:   u,
				ContextSwitch: cs,
				LDR:           n.LDR(),
				FCSR:          n.FCSR(),
			})
		}
	}
	return out
}
