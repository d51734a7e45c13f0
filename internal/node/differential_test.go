package node

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// steppedUtilization is a UtilizationSource that walks a fixed cycle of
// levels, changing every window: it forces the stream through mixed,
// pure-idle and pure-busy windows so the differential suite crosses every
// drawNext branch.
type steppedUtilization []float64

func (s steppedUtilization) UtilizationAt(t float64) float64 {
	idx := int(t/workload.DefaultWindow) % len(s)
	if idx < 0 {
		idx += len(s)
	}
	return s[idx]
}

// stateDigest folds every observable metric of n, bit for bit, into h.
func stateDigest(h hash.Hash, n *Node, delivered float64) {
	var b []byte
	for _, v := range []float64{n.Now(), n.LDR(), n.FCSR(), n.ForeignCPU(), n.LocalDelay(), n.LocalCPUDemand(), delivered} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	h.Write(binary.LittleEndian.AppendUint64(b, uint64(n.Preemptions())))
}

// The differential suite pins Node to the trajectories of the per-burst
// reference loop that the locals-resident ServeForeign replaced: each
// digest below folds the full state after every call of a seeded
// schedule, recorded from the field-resident reference implementation.
// Bit-identity is the contract — a change to the node loop that moves
// any metric by one ulp on any step changes a digest.
var differentialSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}

// interleavingDigests are the reference trajectories of
// TestDifferentialRandomInterleavings, one per differentialSeeds entry.
var interleavingDigests = []uint64{
	0xda8c3f4603cd6795, 0x0b24fca796b9c797, 0x302e6a418b8a2bc3, 0x0fc662261c6ba070,
	0xd91d382c767b6e71, 0xe79b603a1f65bc24, 0x0b60f3fb6697aca8, 0x4f0f6718f74ab7d9,
	0x6c90b5336fad3f20, 0xc45c0c7b1fd9d90e, 0x6140b433503204ed, 0x8a32ee076119ee0a,
}

// lateClockDigests are the reference trajectories of
// TestDifferentialLateClock, one per differentialSeeds[:8] entry.
var lateClockDigests = []uint64{
	0x48d306dce5fa352c, 0x44b60224c81da7e0, 0x70d762304fa8b237, 0x9c09a1d6b5c108ae,
	0x5c8f0444caf408dc, 0xaa387fa4d524873b, 0xac0976102c364c2f, 0xb09d1d259ba3724f,
}

// TestDifferentialRandomInterleavings drives a Node through a randomized
// Advance/ServeForeign/ResetMetrics schedule (the full call surface the
// cluster simulator uses, including detach gaps and mid-window resumes)
// and requires the state after every call to match the reference
// trajectory bit for bit, across 12 seeds and three context-switch costs.
func TestDifferentialRandomInterleavings(t *testing.T) {
	table := workload.DefaultTable()
	src := steppedUtilization{0.3, 0, 0.7, 1, 0.1, 0.5, 0.9, 0.05}
	for i, seed := range differentialSeeds {
		cs := []float64{0, 100e-6, 500e-6}[seed%3]
		n := New(Config{ContextSwitch: cs}, table, src, stats.NewRNG(seed))
		h := fnv.New64a()
		ops := stats.NewRNG(seed * 977)
		for step := 0; step < 250; step++ {
			delivered := 0.0
			switch ops.Intn(5) {
			case 0: // detach gap: advance with no foreign job
				n.Advance(n.Now() + ops.Float64()*7)
			case 1: // metric interval boundary
				n.ResetMetrics()
			default: // serve, sometimes unbounded, sometimes demand-limited
				demand := math.Inf(1)
				if ops.Bool(0.5) {
					demand = ops.Float64() * 2
				}
				delivered = n.ServeForeign(demand, n.Now()+ops.Float64()*5)
			}
			stateDigest(h, n, delivered)
		}
		if got := h.Sum64(); got != interleavingDigests[i] {
			t.Errorf("seed %d: trajectory digest %#x, reference %#x", seed, got, interleavingDigests[i])
		}
	}
}

// TestDifferentialLateClock anchors the node at t ~ 1e9 s — where float64
// spacing (~1.2e-7 s) dwarfs the historical absolute burst epsilon — and
// requires the reference trajectory bit for bit with FCSR kept physical.
func TestDifferentialLateClock(t *testing.T) {
	table := workload.DefaultTable()
	src := steppedUtilization{0.5, 0.2, 0, 0.8}
	const anchor = 1e9
	for i, seed := range differentialSeeds[:8] {
		n := New(Config{ContextSwitch: 100e-6}, table, src, stats.NewRNG(seed))
		n.Advance(anchor)
		h := fnv.New64a()
		ops := stats.NewRNG(seed + 4242)
		for step := 0; step < 60; step++ {
			demand := math.Inf(1)
			if ops.Bool(0.5) {
				demand = ops.Float64()
			}
			delivered := n.ServeForeign(demand, n.Now()+ops.Float64()*4)
			stateDigest(h, n, delivered)
			if f := n.FCSR(); f > 1+1e-12 {
				t.Fatalf("seed %d step %d: FCSR %v above 1 at late clock", seed, step, f)
			}
		}
		if got := h.Sum64(); got != lateClockDigests[i] {
			t.Errorf("seed %d: trajectory digest %#x, reference %#x", seed, got, lateClockDigests[i])
		}
	}
}
