package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram is a fixed-width binned histogram over [Lo, Hi). Samples below
// Lo land in the first bin; samples at or above Hi land in the last bin.
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	lo, hi float64
	width  float64
	counts []int
	total  int
}

// NewHistogram returns a histogram with bins equal-width bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: histogram needs positive bin count, got %d", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram needs hi > lo, got [%g, %g)", lo, hi))
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]int, bins),
	}
}

// Add folds x into the histogram, clamping out-of-range samples to the
// boundary bins.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.lo) / h.width)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the number of samples in bin i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// Total returns the total number of samples added.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + float64((float64(i)+0.5)*h.width)
}

// Fraction returns the fraction of samples in bin i, or 0 if the histogram
// is empty.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// CumulativeFraction returns the fraction of samples in bins [0, i], or 0
// if the histogram is empty.
func (h *Histogram) CumulativeFraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	c := 0
	for j := 0; j <= i && j < len(h.counts); j++ {
		c += h.counts[j]
	}
	return float64(c) / float64(h.total)
}

// String renders a compact textual sketch of the histogram, one line per
// non-empty bin.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%8.4f) %6d %5.1f%%\n", h.lo+float64(float64(i)*h.width), c, 100*h.Fraction(i))
	}
	return b.String()
}

// ECDF is an empirical cumulative distribution function built from a
// sample. The zero value is an empty ECDF; Add samples then call At.
type ECDF struct {
	xs     []float64
	sorted bool
}

// NewECDF returns an ECDF over a copy of xs.
func NewECDF(xs []float64) *ECDF {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &ECDF{xs: cp, sorted: true}
}

// Add appends a sample.
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.xs) }

func (e *ECDF) ensureSorted() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// At returns the empirical P(X <= x), or 0 for an empty ECDF.
func (e *ECDF) At(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	// Number of samples <= x.
	n := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(n) / float64(len(e.xs))
}

// Quantile returns the q-quantile of the sample (0 <= q <= 1).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	return quantileSorted(e.xs, q)
}

// Points returns n evenly spaced (x, F(x)) points spanning the sample
// range, suitable for plotting a CDF curve. It returns nil for an empty
// ECDF or n < 2.
func (e *ECDF) Points(n int) [][2]float64 {
	if len(e.xs) == 0 || n < 2 {
		return nil
	}
	e.ensureSorted()
	lo, hi := e.xs[0], e.xs[len(e.xs)-1]
	pts := make([][2]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = [2]float64{x, e.At(x)}
	}
	return pts
}

// MaxAbsDiff returns the maximum absolute difference between the ECDF and
// the model CDF evaluated at every sample point (the Kolmogorov–Smirnov
// statistic against a fitted distribution).
func (e *ECDF) MaxAbsDiff(cdf func(float64) float64) float64 {
	e.ensureSorted()
	maxDiff := 0.0
	n := float64(len(e.xs))
	for i, x := range e.xs {
		model := cdf(x)
		hi := float64(i+1)/n - model
		lo := model - float64(i)/n
		if hi > maxDiff {
			maxDiff = hi
		}
		if lo > maxDiff {
			maxDiff = lo
		}
	}
	return maxDiff
}
