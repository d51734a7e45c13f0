package fabric

import (
	"encoding/json"
	"fmt"
	"math"

	"lingerlonger/internal/cluster"
	"lingerlonger/internal/core"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/node"
	"lingerlonger/internal/scenario"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
	"lingerlonger/internal/workload"
)

// This file defines the built-in fabric tasks — the remote-executable
// forms of the repository's simulations — and the sweep builders that
// expand a (sweep name, master seed, quick) triple into the point specs
// every execution path (serial, parallel local, distributed) runs
// identically. Tasks must be pure functions of their spec: all randomness
// comes from spec.Seed via exp.DeriveSeed, and outputs are canonical JSON
// whose bytes round-trip unchanged through the checkpoint store.

// TaskCluster is the batch cluster simulation task (Figures 7-8 shape):
// one policy on one workload, reporting the Figure 7 metrics and Figure 8
// breakdown.
const TaskCluster = "cluster"

// TaskNode is the single-workstation task (Figure 5 shape): one
// (context-switch, utilization) point reporting LDR and FCSR.
const TaskNode = "node"

// clusterParams is the JSON parameter document of TaskCluster.
type clusterParams struct {
	Policy   string `json:"policy"`
	Workload int    `json:"workload"` // 1 (heavy) or 2 (light)
	Quick    bool   `json:"quick"`
}

// clusterPoint is the JSON result document of TaskCluster.
type clusterPoint struct {
	Policy        string  `json:"policy"`
	Workload      int     `json:"workload"`
	AvgCompletion float64 `json:"avgCompletion"`
	Variation     float64 `json:"variation"`
	FamilyTime    float64 `json:"familyTime"`
	LocalDelay    float64 `json:"localDelay"`
	Queued        float64 `json:"queued"`
	Running       float64 `json:"running"`
	Lingering     float64 `json:"lingering"`
	Paused        float64 `json:"paused"`
	Migrating     float64 `json:"migrating"`
	Migrations    int     `json:"migrations"`
	Evictions     int     `json:"evictions"`
	Incomplete    int     `json:"incomplete"`
}

func runClusterTask(spec exp.PointSpec) ([]byte, error) {
	var p clusterParams
	if err := json.Unmarshal(spec.Params, &p); err != nil {
		return nil, fmt.Errorf("fabric: cluster params: %w", err)
	}
	policy, err := core.ParsePolicy(p.Policy)
	if err != nil {
		return nil, err
	}
	var cfg cluster.Config
	switch p.Workload {
	case 1:
		cfg = cluster.Workload1(policy)
	case 2:
		cfg = cluster.Workload2(policy)
	default:
		return nil, fmt.Errorf("fabric: cluster workload %d (want 1 or 2)", p.Workload)
	}
	tcfg := trace.DefaultConfig()
	machines, days := 16, 7
	if p.Quick {
		machines, days = 6, 1
		cfg.Nodes = 16
		cfg.NumJobs = math.Min(cfg.NumJobs, 24)
		cfg.JobCPU = 120
	}
	tcfg.Days = days
	// Two independent seed spaces off the point seed: one for the trace
	// corpus, one for the simulation itself.
	corpus, err := trace.GenerateCorpus(tcfg, machines, stats.NewRNG(exp.DeriveSeed(spec.Seed, 0)))
	if err != nil {
		return nil, err
	}
	cfg.Seed = exp.DeriveSeed(spec.Seed, 1)
	res, err := cluster.Run(cfg, corpus)
	if err != nil {
		return nil, err
	}
	return json.Marshal(clusterPoint{
		Policy:        p.Policy,
		Workload:      p.Workload,
		AvgCompletion: res.AvgCompletion,
		Variation:     res.Variation,
		FamilyTime:    res.FamilyTime,
		LocalDelay:    res.LocalDelay,
		Queued:        res.Breakdown.Queued,
		Running:       res.Breakdown.Running,
		Lingering:     res.Breakdown.Lingering,
		Paused:        res.Breakdown.Paused,
		Migrating:     res.Breakdown.Migrating,
		Migrations:    res.Migrations,
		Evictions:     res.Evictions,
		Incomplete:    res.Incomplete,
	})
}

// nodeParams is the JSON parameter document of TaskNode.
type nodeParams struct {
	ContextSwitch float64 `json:"cs"`   // effective context-switch time, seconds
	Utilization   float64 `json:"util"` // owner CPU utilization
	Duration      float64 `json:"dur"`  // simulated seconds
}

// nodePoint is the JSON result document of TaskNode.
type nodePoint struct {
	ContextSwitch float64 `json:"cs"`
	Utilization   float64 `json:"util"`
	LDR           float64 `json:"ldr"`
	FCSR          float64 `json:"fcsr"`
}

func runNodeTask(spec exp.PointSpec) ([]byte, error) {
	var p nodeParams
	if err := json.Unmarshal(spec.Params, &p); err != nil {
		return nil, fmt.Errorf("fabric: node params: %w", err)
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("fabric: node duration %g must be positive", p.Duration)
	}
	n := node.New(
		node.Config{ContextSwitch: p.ContextSwitch},
		workload.DefaultTable(),
		workload.ConstantUtilization(p.Utilization),
		stats.NewRNG(spec.Seed),
	)
	n.ServeForeign(math.Inf(1), p.Duration)
	return json.Marshal(nodePoint{
		ContextSwitch: p.ContextSwitch,
		Utilization:   p.Utilization,
		LDR:           n.LDR(),
		FCSR:          n.FCSR(),
	})
}

// BuiltinTasks returns a registry holding the repository's standard tasks,
// including the scenario task (internal/scenario) that executes points of
// declarative scenario specs. Agents (cmd/lingerd -agent) and serial
// drivers (cmd/llsweep -workers) must register the same tasks so a spec
// means the same computation in every process.
func BuiltinTasks() *exp.Tasks {
	t := exp.NewTasks()
	for name, fn := range map[string]exp.TaskFunc{
		TaskCluster:       runClusterTask,
		TaskNode:          runNodeTask,
		scenario.TaskName: scenario.Task,
	} {
		if err := t.Register(name, fn); err != nil {
			panic(err) // unreachable: static names, non-nil funcs
		}
	}
	return t
}

// SweepNames lists the sweeps BuildSweep knows how to expand.
func SweepNames() []string { return []string{"node", "fig8"} }

// BuildSweep expands a named sweep into its point specs: per-point seeds
// come from exp.DeriveSeed(seed, index), and parameters are canonical
// JSON, so the spec list is a pure function of (name, seed, quick). The
// returned ID is the checkpoint sweep key.
func BuildSweep(name string, seed int64, quick bool) (string, []exp.PointSpec, error) {
	var specs []exp.PointSpec
	add := func(task string, params any) error {
		b, err := json.Marshal(params)
		if err != nil {
			return err
		}
		i := len(specs)
		specs = append(specs, exp.PointSpec{
			Task:   task,
			Sweep:  name,
			Index:  i,
			Seed:   exp.DeriveSeed(seed, i),
			Params: b,
		})
		return nil
	}
	switch name {
	case "node":
		css := []float64{100e-6, 300e-6, 500e-6}
		var utils []float64
		dur := 2000.0
		if quick {
			utils = []float64{0, 0.3, 0.6, 0.9}
			dur = 200
		} else {
			for i := 0; i <= 18; i++ {
				utils = append(utils, float64(i)*5/100)
			}
		}
		for _, cs := range css {
			for _, u := range utils {
				if err := add(TaskNode, nodeParams{ContextSwitch: cs, Utilization: u, Duration: dur}); err != nil {
					return "", nil, err
				}
			}
		}
	case "fig8":
		for _, wl := range []int{1, 2} {
			for _, pol := range core.Policies {
				if err := add(TaskCluster, clusterParams{Policy: pol.String(), Workload: wl, Quick: quick}); err != nil {
					return "", nil, err
				}
			}
		}
	default:
		return "", nil, fmt.Errorf("fabric: unknown sweep %q (have %v)", name, SweepNames())
	}
	return name, specs, nil
}
