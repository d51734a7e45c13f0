// Package node models one workstation running its owner's fine-grain
// run/idle burst stream plus at most one foreign job at strictly lower
// priority (§2, §4.1 of the paper).
//
// The priority rules are the paper's: foreground bursts always own the
// CPU; a foreign job runs only inside idle bursts; when a local process
// becomes runnable it preempts the foreign job immediately, even mid
// quantum. Every hand-off charges an effective context-switch cost
// (register save plus cache reload — 100 µs nominal, following Mogul &
// Borg): the switch into the foreign job consumes the head of the idle
// burst, and the switch back delays the local burst.
//
// Two metrics fall out (Figure 5):
//
//   - LDR (local job delay ratio): context-switch delay charged to local
//     bursts over local CPU demand — the owner's slowdown.
//   - FCSR (fine-grain cycle stealing ratio): CPU delivered to the foreign
//     job over the idle time it had available.
package node

import (
	"fmt"
	"math"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// DefaultContextSwitch is the effective context-switch time the paper
// selects (100 microseconds), in seconds.
const DefaultContextSwitch = 100e-6

// Config holds node parameters.
type Config struct {
	// ContextSwitch is the effective context-switch time in seconds
	// (register save plus cache-state reload).
	ContextSwitch float64

	// Rec, when non-nil, receives the node.preemptions counter. Metrics
	// are a side channel (never read back), so attaching a recorder
	// cannot change results.
	Rec *obs.Recorder
}

// DefaultConfig returns the paper's nominal configuration.
func DefaultConfig() Config { return Config{ContextSwitch: DefaultContextSwitch} }

// Node is a single simulated workstation. Create one with New; methods are
// not safe for concurrent use. DESIGN.md §14 documents the burst loop.
type Node struct {
	cfg    Config
	stream *workload.Windowed

	now     float64
	cur     workload.Burst
	haveCur bool

	switchPaid     bool // foreign switch-in paid within the current idle burst
	foreignRanIdle bool // foreign consumed CPU during the latest idle burst

	// Accounting (only while a foreign job is attached).
	localDemand float64
	localDelay  float64
	idleSeen    float64
	foreignCPU  float64
	preemptions int64
	preemptC    *obs.Counter // pre-resolved handle; nil = observability off
}

// New returns a node whose local workload is generated from table at the
// utilization given by src, starting at time 0.
func New(cfg Config, table *workload.Table, src workload.UtilizationSource, rng *stats.RNG) *Node {
	if cfg.ContextSwitch < 0 {
		panic(fmt.Sprintf("node: negative context-switch time %g", cfg.ContextSwitch))
	}
	return &Node{
		cfg:      cfg,
		stream:   workload.NewWindowed(table, src, 0, rng),
		preemptC: cfg.Rec.Counter(obs.NodePreemptions),
	}
}

// Now returns the node's wall-clock position in seconds.
func (n *Node) Now() float64 { return n.now }

// Preemptions returns the number of times a local burst preempted the
// foreign job.
func (n *Node) Preemptions() int64 { return n.preemptions }

// LDR returns the local job delay ratio accumulated so far, or 0 when no
// local CPU demand has been observed.
func (n *Node) LDR() float64 {
	if n.localDemand == 0 {
		return 0
	}
	return n.localDelay / n.localDemand
}

// FCSR returns the fine-grain cycle-stealing ratio accumulated so far, or
// 0 when no idle time has been observed.
func (n *Node) FCSR() float64 {
	if n.idleSeen == 0 {
		return 0
	}
	return n.foreignCPU / n.idleSeen
}

// ForeignCPU returns the total CPU seconds delivered to foreign jobs.
func (n *Node) ForeignCPU() float64 { return n.foreignCPU }

// LocalDelay returns the total context-switch delay charged to local
// bursts, in seconds.
func (n *Node) LocalDelay() float64 { return n.localDelay }

// LocalCPUDemand returns the total local CPU demand observed while a
// foreign job was attached, in seconds.
func (n *Node) LocalCPUDemand() float64 { return n.localDemand }

// Advance moves the node's clock to until with no foreign job attached:
// the owner's workload runs undisturbed, so no fine-grain simulation or
// accounting is needed. Advancing backwards panics.
func (n *Node) Advance(until float64) {
	if until < n.now {
		panic(fmt.Sprintf("node: Advance backwards from %g to %g", n.now, until))
	}
	// No foreign job ran in the gap, and a future attach must pay a fresh
	// switch-in.
	n.foreignRanIdle = false
	n.switchPaid = false
	if n.haveCur && until < n.cur.End() {
		// Still inside the current burst: keep it so the remainder (for a
		// pure-idle node, the rest of a whole trace window) stays usable.
		n.now = until
		return
	}
	n.haveCur = false
	if until > n.stream.Now() {
		n.stream.SeekTo(until)
	}
	n.now = until
}

// burstEps returns the finished-burst tolerance at clock position end: a
// burst whose remainder is below it is treated as fully consumed. The
// historical tolerance was an absolute 1e-12, but float64 spacing passes
// 1e-12 at t ~ 4500 s, after which a steal that lands one ulp short of
// the burst end re-entered the finished burst for a phantom iteration
// (over-accounting idleSeen/foreignCPU by one ulp per occurrence). The
// tolerance therefore also scales with the clock: four ulps (2^-50
// relative) covers the at-most-two-ulp shortfall of
// now + (segEnd - now) in round-to-nearest, while staying far below any
// real burst duration.
func burstEps(end float64) float64 {
	eps := 1e-12
	if s := math.Abs(end) * 0x1p-50; s > eps {
		eps = s
	}
	return eps
}

// burstDone reports whether a burst ending at end is fully consumed at
// clock position now.
func burstDone(now, end float64) bool {
	return now >= end-burstEps(end)
}

// ServeForeign runs a compute-bound foreign job on the node until either
// demand CPU-seconds have been delivered or the wall clock reaches until.
// It returns the CPU actually delivered; the node's clock (Now) stops at
// the completion instant when the demand is met early.
//
// This is the hot path of every figure (a full experiments run crosses
// ~9.5 million preemptions here). The loop pulls one burst at a time and
// keeps every accumulator in a local for the duration of the call, writing
// them back once at the end (one counter Add instead of one Inc per
// preemption).
func (n *Node) ServeForeign(demand, until float64) float64 {
	if demand < 0 {
		panic(fmt.Sprintf("node: negative foreign demand %g", demand))
	}
	if until < n.now {
		panic(fmt.Sprintf("node: ServeForeign until %g before now %g", until, n.now))
	}
	var (
		now        = n.now
		cur        = n.cur
		haveCur    = n.haveCur
		switchPaid = n.switchPaid
		ranIdle    = n.foreignRanIdle
		demandSum  = n.localDemand
		delaySum   = n.localDelay
		idleSeen   = n.idleSeen
		stolen     = n.foreignCPU
		preempts   = int64(0)
		delivered  = 0.0
	)
	cs := n.cfg.ContextSwitch

	for now < until && delivered < demand {
		if !haveCur || burstDone(now, cur.End()) {
			// A fresh burst is served exactly once, even when its duration
			// is already below the burst-end tolerance: burstDone only
			// decides whether to fetch.
			cur = n.stream.Next()
			haveCur = true
			switchPaid = false
			// Entering a run burst: account the owner's demand and the
			// preemption delay if the foreign job held the CPU.
			if cur.Run {
				demandSum += cur.Duration
				if ranIdle {
					delaySum += cs
					preempts++
				}
				ranIdle = false
			}
		}
		segEnd := cur.End()
		if segEnd > until {
			segEnd = until
		}
		if cur.Run {
			now = segEnd
			continue
		}
		// Idle burst: the foreign job first pays its switch-in (anchored at
		// the current position — the job may resume mid-burst after an
		// Advance), then steals cycles until the burst ends, the deadline
		// hits, or the demand completes.
		if !switchPaid {
			payEnd := now + cs
			if payEnd > segEnd {
				idleSeen += segEnd - now
				now = segEnd
				continue
			}
			idleSeen += payEnd - now
			now = payEnd
			switchPaid = true
		}
		room := segEnd - now
		if room <= 0 {
			continue
		}
		use := room
		if rem := demand - delivered; use > rem {
			use = rem
		}
		idleSeen += use
		stolen += use
		delivered += use
		now += use
		ranIdle = true
	}

	n.now = now
	n.cur = cur
	n.haveCur = haveCur
	n.switchPaid = switchPaid
	n.foreignRanIdle = ranIdle
	n.localDemand = demandSum
	n.localDelay = delaySum
	n.idleSeen = idleSeen
	n.foreignCPU = stolen
	if preempts != 0 {
		n.preemptions += preempts
		n.preemptC.Add(preempts)
	}
	return delivered
}

// ResetMetrics clears the accumulated LDR/FCSR accounting without moving
// the clock; the cluster simulator resets between measurement intervals.
func (n *Node) ResetMetrics() {
	n.localDemand = 0
	n.localDelay = 0
	n.idleSeen = 0
	n.foreignCPU = 0
	n.preemptions = 0
}
