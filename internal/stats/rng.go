// Package stats provides the statistical substrate used by every simulator
// in this repository: a deterministic random-number source, the burst
// distributions the paper fits (exponential and two-stage hyperexponential),
// the method-of-moments hyperexponential fit, histograms, empirical CDFs,
// and streaming summary statistics.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible from an explicit seed.
//
// A float64(...) around a product that feeds an addition is explicit
// rounding: it stops an FMA architecture (arm64, ppc64le, s390x) from
// fusing the two, so results match amd64 bit for bit (DESIGN.md §8).
package stats

import "math/rand"

// RNG is a deterministic random-number generator. The zero value is not
// usable; construct one with NewRNG. RNG is not safe for concurrent use;
// simulators that run nodes in parallel give each node its own RNG derived
// with Split.
//
// Its stream is math/rand's Go 1 stream, bit for bit: src is a concrete
// copy of math/rand's source (alfg.go), so the hot draws (Float64, Bool,
// Int63, ExpFloat64) read it directly instead of calling through the
// rand.Source interface. The rarely used draws (Intn, NormFloat64, Perm)
// go through r, a rand.Rand over the same src, so interleaved draws
// consume the state in the same order.
type RNG struct {
	src alfg
	r   *rand.Rand
}

// NewRNG returns a generator seeded with seed. Equal seeds yield identical
// streams.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.src.Seed(seed)
	r.r = rand.New(&r.src)
	return r
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, so a fixed sequence of Split
// calls after NewRNG is reproducible.
func (r *RNG) Split() *RNG {
	// Mix two draws so neighbouring splits do not share low bits.
	seed := r.Int63() ^ (r.Int63() << 1)
	return NewRNG(seed)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	// math/rand's Go 1 Float64: float64(Int63())/(1<<63), resampled in
	// the O(never) case that the division rounds up to 1. The compiler
	// turns the division into a multiplication; the outer float64(...)
	// keeps a caller from fusing that into an FMA (1-Float64() would
	// otherwise fuse on arm64).
	for {
		if f := float64(float64(r.src.Int63()) / (1 << 63)); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.r.Perm(n) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
