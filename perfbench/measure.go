package main

import (
	"math"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "R-7" rule). It returns NaN for an empty slice;
// +Inf values sort last, and a quantile that reaches one is +Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// A set-up is short (microseconds to a millisecond) and its time follows
// the machine's state of the moment, which shifts by half over minutes.
// So setup_s is the median of many set-ups spread over the whole run:
// setupFirst before the first unit of work and setupEach after each part
// of one.
const (
	setupFirst = 51
	setupEach  = 5
)

// setupTimer times a workload's set-up, tearing each one down untimed.
// The first error stops it; err reports it.
type setupTimer struct {
	setup func() (teardown func(), err error)
	ds    []float64 // s
	err   error
}

// time runs the set-up n times.
func (s *setupTimer) time(n int) {
	for i := 0; i < n && s.err == nil; i++ {
		t0 := time.Now()
		teardown, err := s.setup()
		d := time.Since(t0)
		if err != nil {
			s.err = err
			return
		}
		teardown()
		s.ds = append(s.ds, d.Seconds())
	}
}

// seconds returns the median set-up time.
func (s *setupTimer) seconds() float64 { return median(s.ds) }

// The machine the benchmark runs on is shared, and its speed drifts by
// 10–25 % over a minute with the load of its neighbours. So every timed
// unit of work is divided by the time of a fixed reference computation
// run right before and after it in the same process: a drift that slows
// both cancels, and a change to the program moves only the numerator.
// The reference is the benchmark's own code and allocates nothing, so
// the program's heap and garbage do not reach it.

// refKernel is the reference computation: random reads over a table,
// exponential samples drawn with math.Log and a sort, the kinds of work
// the simulators do. It also records the retained heap: the live heap
// after the full collection each reference block starts with.
type refKernel struct {
	table    []uint64
	vals     []float64
	scratch  []float64
	sink     float64
	retained uint64 // bytes, the largest seen
	live     []metrics.Sample
}

func newRefKernel() *refKernel {
	k := &refKernel{
		table: make([]uint64, 1<<15), vals: make([]float64, 1<<14), scratch: make([]float64, 1<<14),
		live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	for i := range k.table {
		k.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return k
}

// run does one reference computation, a few milliseconds long.
func (k *refKernel) run() {
	x := uint64(0x2545F4914F6CDD1D)
	acc := uint64(0)
	for i := 0; i < 1<<18; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		acc += k.table[x>>49]
	}
	for i := range k.vals {
		x = x*6364136223846793005 + 1442695040888963407
		k.vals[i] = -math.Log(1 - float64(x>>11)/(1<<53))
	}
	copy(k.scratch, k.vals)
	sort.Float64s(k.scratch)
	k.sink += k.scratch[len(k.scratch)/2] + float64(acc&1)
}

// A reference block lasts refShare of the part of the work before it, and at
// least refMin: long enough that the machine's momentary bursts of speed
// average out in it as they do in the unit of work.
const (
	refShare = 0.05
	refMin   = 50 * time.Millisecond
)

// block runs the reference computation for at least d and returns its
// mean time, in seconds. It first collects the garbage of the work before
// it, so that the collector does not share the core with the reference
// computation, and the next unit of work starts from a collected heap.
func (k *refKernel) block(d time.Duration) float64 {
	goruntime.GC()
	metrics.Read(k.live)
	k.retained = max(k.retained, k.live[0].Value.Uint64())
	t0 := time.Now()
	n := 0
	for n < 3 || time.Since(t0) < d {
		k.run()
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// retainedMB is the largest heap found live after a reference block's
// collection, in MB: the memory the work keeps from one part to the next,
// which a cache or memoization grows. Sampled only there, it does not
// depend on when the collector happens to run during the work; the live
// heap's peak during the work does, and moved by a fifth between runs of
// unchanged code.
func (k *refKernel) retainedMB() float64 { return float64(k.retained) / (1 << 20) }

// refBlockFor is the reference block to run after a part of the work that
// took wall seconds.
func refBlockFor(wall float64) time.Duration {
	return max(refMin, time.Duration(refShare*wall*float64(time.Second)))
}
