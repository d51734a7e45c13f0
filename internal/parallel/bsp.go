// Package parallel simulates bulk-synchronous parallel (BSP) jobs running
// on a shared workstation cluster under Linger-Longer (§5 of the paper).
//
// A job is a set of processes, one per node, alternating compute phases
// and communication phases separated by barriers. A process on a non-idle
// node computes at low priority through the fine-grain strict-priority
// model of internal/node, so one busy node stretches every phase of the
// whole job (the barrier waits for the slowest process). Communication is
// network-bound and therefore insensitive to local CPU activity — which is
// why communication-heavy applications suffer less from lingering.
//
// The figure drivers (Fig9, Fig10, Fig11) sweep utilization levels, sync
// granularities and idle-node counts. Each sweep point runs on the
// internal/exp worker pool with its own RNG derived from (seed, index),
// so a Workers-sized pool accelerates the sweep without changing any
// result (DESIGN.md §8).
package parallel

import (
	"fmt"
	"math"

	"lingerlonger/internal/node"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// BSPConfig describes a synthetic bulk-synchronous job.
type BSPConfig struct {
	Procs           int     // processes, one per node
	ComputePerPhase float64 // CPU seconds per process per phase (sync granularity)
	Phases          int     // number of phases
	MsgsPerPhase    int     // messages per process in a communication phase (NEWS: 4)
	MsgLatency      float64 // per-message time, seconds
	ContextSwitch   float64 // effective context-switch time on each node

	// SyncHandlerCPU is the CPU each process must spend handling
	// synchronization and shared-memory protocol traffic per phase
	// (barrier arrival processing, page requests, diff application in a
	// software DSM like CVM). The handling is serialized around the
	// processes like a token barrier, so every process on a non-idle node
	// delays the chain until its local scheduler grants it the CPU. Zero
	// disables the mechanism (pure message-passing jobs).
	SyncHandlerCPU float64

	// Table overrides the fine-grain workload calibration; nil selects
	// workload.DefaultTable(). Used by the burst-distribution ablations.
	Table *workload.Table

	// Rec, when non-nil, receives the bsp.phases counter and the
	// per-node preemption counter. Metrics are outputs only, never read
	// back, so a recorder cannot change results.
	Rec *obs.Recorder
}

// DefaultBSPConfig returns the paper's synthetic job: eight processes with
// 100 ms between synchronizations and NEWS-style neighbour messaging.
func DefaultBSPConfig() BSPConfig {
	return BSPConfig{
		Procs:           8,
		ComputePerPhase: 0.100,
		Phases:          100,
		MsgsPerPhase:    4,
		MsgLatency:      0.001,
		ContextSwitch:   node.DefaultContextSwitch,
	}
}

// Validate checks the job description.
func (c BSPConfig) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("parallel: Procs must be positive, got %d", c.Procs)
	}
	if c.ComputePerPhase <= 0 {
		return fmt.Errorf("parallel: ComputePerPhase must be positive, got %g", c.ComputePerPhase)
	}
	if c.Phases <= 0 {
		return fmt.Errorf("parallel: Phases must be positive, got %d", c.Phases)
	}
	if c.MsgsPerPhase < 0 || c.MsgLatency < 0 {
		return fmt.Errorf("parallel: negative communication parameters")
	}
	if c.ContextSwitch < 0 {
		return fmt.Errorf("parallel: negative context-switch time")
	}
	if c.SyncHandlerCPU < 0 {
		return fmt.Errorf("parallel: negative sync-handler CPU")
	}
	return nil
}

// commTime returns the wall-clock length of one communication phase,
// rounded so a caller adding it cannot fuse the product into an FMA
// (DESIGN.md §8).
func (c BSPConfig) commTime() float64 {
	return float64(float64(c.MsgsPerPhase) * c.MsgLatency)
}

// maxPhaseWait bounds how long one process may take for a single compute
// phase before the simulation declares it starved (a process on a 100%
// utilized node never finishes).
const maxPhaseWait = 1e6

// RunBSP simulates the job with its processes placed on nodes whose local
// CPU utilizations are given by utils (len(utils) must equal cfg.Procs; 0
// is an idle node). It returns the job completion time in seconds. An
// error is returned for invalid configurations or if a process starves.
func RunBSP(cfg BSPConfig, utils []float64, rng *stats.RNG) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(utils) != cfg.Procs {
		return 0, fmt.Errorf("parallel: %d utilizations for %d processes", len(utils), cfg.Procs)
	}
	table := cfg.Table
	if table == nil {
		table = workload.DefaultTable()
	}
	nodes := make([]*node.Node, cfg.Procs)
	for i, u := range utils {
		if u < 0 || u > 1 {
			return 0, fmt.Errorf("parallel: utilization %g out of [0,1]", u)
		}
		nodes[i] = node.New(node.Config{ContextSwitch: cfg.ContextSwitch, Rec: cfg.Rec}, table,
			workload.ConstantUtilization(u), rng.Split())
	}

	phaseC := cfg.Rec.Counter(obs.BSPPhases)
	now := 0.0
	comm := cfg.commTime()
	for p := 0; p < cfg.Phases; p++ {
		// Compute phase: every process needs ComputePerPhase CPU seconds;
		// the opening barrier of the communication phase waits for the
		// slowest.
		barrier := now
		for i, nd := range nodes {
			if nd.Now() < now {
				nd.Advance(now)
			}
			got := nd.ServeForeign(cfg.ComputePerPhase, now+maxPhaseWait)
			if got < cfg.ComputePerPhase-1e-9 {
				return 0, fmt.Errorf("parallel: process %d starved in phase %d (node utilization %g)",
					i, p, utils[i])
			}
			if nd.Now() > barrier {
				barrier = nd.Now()
			}
		}
		// Synchronization handling: the token passes through every process
		// in turn; a process on a non-idle node holds the chain until its
		// strict-priority scheduler gives it the CPU.
		chain := barrier
		if cfg.SyncHandlerCPU > 0 {
			for i, nd := range nodes {
				if nd.Now() < chain {
					nd.Advance(chain)
				}
				got := nd.ServeForeign(cfg.SyncHandlerCPU, chain+maxPhaseWait)
				if got < cfg.SyncHandlerCPU-1e-9 {
					return 0, fmt.Errorf("parallel: process %d starved handling sync in phase %d", i, p)
				}
				if nd.Now() > chain {
					chain = nd.Now()
				}
			}
		}
		// Communication phase: NEWS exchanges overlap across processes but
		// serialize per process; local CPU activity does not slow the
		// network transfers.
		now = chain + comm
		phaseC.Inc()
	}
	return now, nil
}

// IdealTime returns the job's completion time on fully idle nodes with
// zero context-switch cost: the analytic baseline for slowdown figures.
// The serialized sync handling costs Procs*SyncHandlerCPU per phase even
// on an idle cluster.
func (c BSPConfig) IdealTime() float64 {
	return float64(c.Phases) * (c.ComputePerPhase + float64(float64(c.Procs)*c.SyncHandlerCPU) + c.commTime())
}

// Slowdown runs the job twice — on the given utilizations and on all-idle
// nodes — and returns the ratio of completion times, the quantity plotted
// in Figures 9, 10 and 12.
func Slowdown(cfg BSPConfig, utils []float64, rng *stats.RNG) (float64, error) {
	busy, err := RunBSP(cfg, utils, rng)
	if err != nil {
		return 0, err
	}
	base, err := RunBSP(cfg, make([]float64, cfg.Procs), rng)
	if err != nil {
		return 0, err
	}
	if base == 0 {
		return 0, fmt.Errorf("parallel: zero baseline time")
	}
	return busy / base, nil
}

// utilVector builds a utilization vector with nonIdle nodes at level u and
// the rest idle.
func utilVector(procs, nonIdle int, u float64) []float64 {
	utils := make([]float64, procs)
	for i := 0; i < nonIdle && i < procs; i++ {
		utils[i] = u
	}
	return utils
}

// infCompletion is the completion-time marker for configurations that
// cannot run at all (reconfiguration with zero idle nodes).
func infCompletion() float64 { return math.Inf(1) }
