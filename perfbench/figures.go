package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"lingerlonger/internal/apps"
	"lingerlonger/internal/cluster"
	"lingerlonger/internal/core"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/node"
	"lingerlonger/internal/parallel"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
	"lingerlonger/internal/workload"
)

// The figures workload is the researcher regenerating the paper: every
// step cmd/experiments runs, in its order, through the public figure
// functions, on a 2-worker exp pool. The points are rebuilt in the layout
// of cmd/experiments' JSON report, so a quick seed-1 pass must equal
// cmd/experiments/testdata/quick-seed1.json byte for byte.

const figureWorkers = 2

// figPoint is one data point in cmd/experiments' JSON layout.
type figPoint map[string]any

type figure struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Points []figPoint `json:"points"`
}

type figConfig struct {
	Quick         bool    `json:"quick"`
	Machines      int     `json:"machines"`
	Days          int     `json:"days"`
	ThroughputDur float64 `json:"throughput_dur_s"`
}

type figReport struct {
	SchemaVersion int       `json:"schema_version"`
	Seed          int64     `json:"seed"`
	Config        figConfig `json:"config"`
	Figures       []figure  `json:"figures"`
}

// jnum mirrors cmd/experiments: JSON has no Inf or NaN.
func jnum(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	default:
		return v
	}
}

// figStep is one step of the regeneration: the layer span it is recorded
// under and the call into that layer.
type figStep struct {
	layer string
	fn    func() ([]figure, error)
}

// figureSteps returns the steps of one regeneration in cmd/experiments'
// order. The corpus step must run first; later steps read its result.
func figureSteps(seed int64, cfg figConfig, table *workload.Table, runner *exp.Runner) []figStep {
	var corpus []*trace.Trace
	one := func(id, title string, pts []figPoint) []figure {
		return []figure{{ID: id, Title: title, Points: pts}}
	}
	return []figStep{
		{"trace.generate", func() ([]figure, error) {
			tcfg := trace.DefaultConfig()
			tcfg.Days = cfg.Days
			var err error
			corpus, err = trace.GenerateCorpus(tcfg, cfg.Machines, stats.NewRNG(seed))
			return nil, err
		}},
		{"workload.fig2", func() ([]figure, error) {
			var pts []figPoint
			for _, s := range workload.Fig2(table, []float64{0.10, 0.50}, 50000, stats.NewRNG(seed)) {
				kind := "idle"
				if s.Run {
					kind = "run"
				}
				pts = append(pts, figPoint{"series": kind, "utilization": jnum(s.Utilization), "ks_distance": jnum(s.KSDistance)})
			}
			return one("fig2", "Figure 2: burst CDFs vs. hyperexponential fit", pts), nil
		}},
		{"workload.fig3", func() ([]figure, error) {
			var pts []figPoint
			for _, row := range workload.Fig3(table) {
				pts = append(pts, figPoint{
					"utilization": jnum(row.Utilization),
					"run_mean":    jnum(row.RunMean), "run_var": jnum(row.RunVar),
					"idle_mean": jnum(row.IdleMean), "idle_var": jnum(row.IdleVar),
				})
			}
			return one("fig3", "Figure 3: workload parameters", pts), nil
		}},
		{"trace.sec32", func() ([]figure, error) {
			cs := trace.Analyze(corpus)
			return one("sec32", "§3.2 coarse-grain availability statistics", []figPoint{{
				"non_idle_fraction":      jnum(cs.NonIdleFraction),
				"frac_non_idle_below_10": jnum(cs.FracNonIdleBelow10),
				"mean_cpu_non_idle":      jnum(cs.MeanCPUNonIdle),
			}}), nil
		}},
		{"trace.fig4", func() ([]figure, error) {
			all, idle, nonIdle := trace.Fig4(corpus)
			gap := idle.Quantile(0.5) - nonIdle.Quantile(0.5)
			return one("fig4", "Figure 4: available-memory CDF", []figPoint{{
				"p_free_ge_14_mb": jnum(trace.FracAtLeast(all, 14)),
				"p_free_ge_10_mb": jnum(trace.FracAtLeast(all, 10)),
				"median_gap_mb":   jnum(gap),
			}}), nil
		}},
		{"node.fig5", func() ([]figure, error) {
			fc := node.DefaultFig5Config()
			fc.Seed = seed
			var pts []figPoint
			for _, p := range node.Fig5(table, fc) {
				pts = append(pts, figPoint{
					"context_switch_us": jnum(p.ContextSwitch * 1e6),
					"utilization":       jnum(p.Utilization),
					"ldr":               jnum(p.LDR),
					"fcsr":              jnum(p.FCSR),
				})
			}
			return one("fig5", "Figure 5: LDR and FCSR on one node", pts), nil
		}},
		{"cluster.fig7_8", func() ([]figure, error) {
			pts, err := fig7and8(seed, corpus, cfg.ThroughputDur, runner)
			return one("fig7_8", "Figures 7 and 8: sequential jobs on a 64-node cluster", pts), err
		}},
		{"parallel.fig9_11", func() ([]figure, error) {
			res, err := parallel.Fig9(runner, seed)
			var pts []figPoint
			for _, p := range res {
				pts = append(pts, figPoint{"utilization": jnum(p.Utilization), "slowdown": jnum(p.Slowdown)})
			}
			return one("fig9", "Figure 9: BSP slowdown vs. local utilization", pts), err
		}},
		{"parallel.fig9_11", func() ([]figure, error) {
			res, err := parallel.Fig10(runner, seed)
			var pts []figPoint
			for _, p := range res {
				pts = append(pts, figPoint{
					"granularity_ms": jnum(p.GranularityMS), "non_idle": jnum(float64(p.NonIdleNodes)),
					"slowdown": jnum(p.Slowdown),
				})
			}
			return one("fig10", "Figure 10: slowdown vs. synchronization granularity", pts), err
		}},
		{"parallel.fig9_11", func() ([]figure, error) {
			rc := parallel.DefaultReconfigConfig()
			rc.Seed = seed
			rc.Exec = runner
			res, err := parallel.Fig11(rc)
			var pts []figPoint
			for _, p := range res {
				jp := figPoint{"idle": jnum(float64(p.IdleNodes)), "reconfig": jnum(p.Reconfig)}
				for _, k := range rc.LLSizes {
					jp[fmt.Sprintf("ll_%d", k)] = jnum(p.LL[k])
				}
				pts = append(pts, jp)
			}
			return one("fig11", "Figure 11: linger vs. reconfiguration (synthetic, 32 nodes)", pts), err
		}},
		{"apps.fig12_13", func() ([]figure, error) {
			res, err := apps.Fig12(runner, seed)
			var pts []figPoint
			for _, p := range res {
				pts = append(pts, figPoint{
					"app": p.App, "non_idle": jnum(float64(p.NonIdle)),
					"local_util": jnum(p.LocalUtil), "slowdown": jnum(p.Slowdown),
				})
			}
			return one("fig12", "Figure 12: application slowdowns (8-node cluster)", pts), err
		}},
		{"apps.fig12_13", func() ([]figure, error) {
			ac := apps.DefaultFig13Config()
			ac.Seed = seed
			ac.Exec = runner
			res, err := apps.Fig13(ac)
			var pts []figPoint
			for _, p := range res {
				pts = append(pts, figPoint{
					"app": p.App, "idle": jnum(float64(p.IdleNodes)),
					"reconfig": jnum(p.Reconfig), "ll_16": jnum(p.LL16), "ll_8": jnum(p.LL8),
				})
			}
			return one("fig13", "Figure 13: applications, linger vs. reconfiguration (16 nodes)", pts), err
		}},
		{"cluster.arrivals", func() ([]figure, error) {
			pts, err := arrivals(seed, corpus, runner)
			return one("arrivals", "Extension: open-system response time (Poisson arrivals)", pts), err
		}},
		{"apps.hybrid", func() ([]figure, error) {
			ac := apps.DefaultFig13Config()
			ac.Seed = seed
			ac.Exec = runner
			res, err := apps.FigHybrid(ac)
			var pts []figPoint
			for _, p := range res {
				pts = append(pts, figPoint{
					"app": p.App, "idle": jnum(float64(p.IdleNodes)), "procs": jnum(float64(p.Procs)),
					"slowdown": jnum(p.Slowdown), "best_fixed": jnum(p.BestFixed),
				})
			}
			return one("hybrid", "Extension: the hybrid linger/reconfiguration scheduler", pts), err
		}},
	}
}

func fig7and8(seed int64, corpus []*trace.Trace, tpDur float64, runner *exp.Runner) ([]figPoint, error) {
	var pts []figPoint
	for wl := 1; wl <= 2; wl++ {
		cfg := cluster.Workload1(0)
		if wl == 2 {
			cfg = cluster.Workload2(0)
		}
		cfg.Seed = seed
		cfg.Exec = runner.Named(fmt.Sprintf("wl%d", wl))
		rows, err := cluster.Fig7(cfg, corpus, tpDur)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			pts = append(pts, figPoint{
				"table": "fig7", "workload": jnum(float64(wl)), "policy": row.Policy,
				"avg_completion": jnum(row.AvgCompletion), "variation": jnum(row.Variation),
				"family_time": jnum(row.FamilyTime), "throughput": jnum(row.Throughput),
				"local_delay": jnum(row.LocalDelay),
			})
		}
		results, err := exp.RunSweep(cfg.Exec, "fig8", len(core.Policies), func(i int) (cluster.Result, error) {
			c := cfg
			c.Policy = core.Policies[i]
			c.Exec = nil
			res, err := cluster.Run(c, corpus)
			if err != nil {
				return cluster.Result{}, err
			}
			out := *res
			out.Jobs = nil
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		for i, p := range core.Policies {
			b := results[i].Breakdown
			pts = append(pts, figPoint{
				"table": "fig8", "workload": jnum(float64(wl)), "policy": p.String(),
				"queued": jnum(b.Queued), "running": jnum(b.Running), "lingering": jnum(b.Lingering),
				"paused": jnum(b.Paused), "migrating": jnum(b.Migrating),
			})
		}
	}
	return pts, nil
}

func arrivals(seed int64, corpus []*trace.Trace, runner *exp.Runner) ([]figPoint, error) {
	rates := []float64{0.02, 0.05, 0.08}
	policies := []core.Policy{core.LingerLonger, core.ImmediateEviction}
	results, err := exp.RunSweep(runner, "arrivals", len(rates)*len(policies), func(i int) (cluster.ArrivalsResult, error) {
		cfg := cluster.ArrivalsConfig{
			Cluster:  cluster.Workload1(policies[i%len(policies)]),
			Rate:     rates[i/len(policies)],
			Duration: 3600,
		}
		cfg.Cluster.Seed = seed
		res, err := cluster.RunArrivals(cfg, corpus)
		if err != nil {
			return cluster.ArrivalsResult{}, err
		}
		return *res, nil
	})
	if err != nil {
		return nil, err
	}
	var pts []figPoint
	for k, rate := range rates {
		for j, p := range policies {
			res := results[2*k+j]
			pts = append(pts, figPoint{
				"rate": jnum(rate), "policy": p.String(), "offered_load": jnum(res.OfferedLoad),
				"mean_response": jnum(res.MeanResponse), "p95_response": jnum(res.P95Response),
			})
		}
	}
	return pts, nil
}

// figuresConfig is cmd/experiments' corpus configuration.
func figuresConfig(quick bool) figConfig {
	if quick {
		return figConfig{Quick: true, Machines: 6, Days: 2, ThroughputDur: 900}
	}
	return figConfig{Machines: 16, Days: 7, ThroughputDur: 3600}
}

// regenerate runs every step once and returns the report bytes in
// cmd/experiments' -json encoding, plus each step's wall time in ms. brk,
// when not nil, is called between steps (see passFunc).
func regenerate(tr *Tracer, root int, seed int64, cfg figConfig, table *workload.Table, brk func()) ([]byte, []float64, error) {
	runner := exp.NewRunner(figureWorkers)
	rep := figReport{SchemaVersion: 1, Seed: seed, Config: cfg}
	var ops []float64
	for i, st := range figureSteps(seed, cfg, table, runner) {
		if i > 0 && brk != nil {
			brk()
		}
		id := tr.Begin(st.layer, root, int64(i))
		t0 := time.Now()
		figs, err := st.fn()
		ops = append(ops, ms(time.Since(t0)))
		tr.End(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", st.layer, err)
		}
		rep.Figures = append(rep.Figures, figs...)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return append(b, '\n'), ops, nil
}

// tableBuilds is how many tables one timed figures set-up builds.
const tableBuilds = 1000

// goldenPath is the committed quick seed-1 report of cmd/experiments.
const goldenPath = "cmd/experiments/testdata/quick-seed1.json"

func runFigures(cfg runConfig) (*result, error) {
	// A table takes well under a microsecond to build, less than the
	// clock reads around it would be steady to, so each timed set-up
	// builds tableBuilds tables and setup_s is the time per table.
	st := &setupTimer{setup: func() (func(), error) {
		for i := 0; i < tableBuilds; i++ {
			if err := workload.DefaultTable().Validate(); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	}}
	table := workload.DefaultTable()

	// Untimed anchor: the quick seed-1 configuration must reproduce the
	// committed golden, so a change to any figure's numbers fails here
	// whatever seed the run was given.
	golden, err := os.ReadFile(filepath.Join(cfg.Root, goldenPath))
	if err != nil {
		return nil, err
	}
	quick, _, err := regenerate(nil, 0, 1, figuresConfig(true), table, nil)
	if err != nil {
		return nil, err
	}
	anchorFailed := 0
	if !bytes.Equal(quick, golden) {
		anchorFailed = 1
		logf("figures: quick seed-1 report differs from %s", goldenPath)
	}

	full := figuresConfig(false)
	br, err := runBatch(cfg, st, func(tr *Tracer, root int, brk func()) (*passOut, error) {
		out, ops, err := regenerate(tr, root, cfg.Seed, full, table, brk)
		if err != nil {
			return nil, err
		}
		return &passOut{Output: out, Attempted: len(ops)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: br.Attempted + 1, Failed: br.Failed + anchorFailed, Tracer: br.Tracer}
	if !cfg.Trace {
		res.Metrics = br.endToEnd(st.seconds() / tableBuilds)
		return res, nil
	}
	m := br.layerMetrics()
	m["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	m["trace.generate_calls"] = 1
	m["trace.machine_days"] = float64(full.Machines * full.Days)
	// One corpus feeds sec32, fig4, fig7_8 and arrivals: three of its
	// four uses reuse it.
	m["corpus.reuse_share"] = 0.75
	res.Metrics = m
	return res, nil
}
