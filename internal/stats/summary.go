package stats

import (
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance using Welford's
// algorithm. The zero value is an empty accumulator ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean))
}

// N returns the number of samples added.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 if empty.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (dividing by n), or 0 if fewer than
// two samples were added.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVar returns the unbiased sample variance (dividing by n-1), or 0 if
// fewer than two samples were added.
func (w *Welford) SampleVar() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// CV returns the coefficient of variation (stddev/mean), or 0 when the mean
// is 0.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.StdDev() / w.mean
}

// Min returns the smallest sample, or 0 if empty.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 if empty.
func (w *Welford) Max() float64 { return w.max }

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // population variance
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes descriptive statistics of xs. It copies xs before
// sorting, so the argument is not modified. An empty slice yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return Summary{
		N:      w.N(),
		Mean:   w.Mean(),
		Var:    w.Var(),
		StdDev: w.StdDev(),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantileSorted(sorted, 0.50),
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies xs before sorting.
// It returns 0 for an empty slice and panics for q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Var()
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
