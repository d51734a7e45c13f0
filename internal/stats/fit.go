package stats

import (
	"fmt"
	"math"
)

// FitHyperExp2 fits a two-stage hyperexponential distribution to the given
// mean and variance using the balanced-means method-of-moments estimate the
// paper cites (Trivedi p. 479):
//
//	p1 = (1 + sqrt((c2-1)/(c2+1))) / 2
//	rate1 = 2*p1 / mean
//	rate2 = 2*(1-p1) / mean
//
// where c2 = variance/mean^2 is the squared coefficient of variation. The
// fit matches the first two moments exactly.
//
// The hyperexponential family requires c2 >= 1. Empirical buckets with
// c2 slightly below 1 (possible after interpolation) are clamped to an
// exponential fit (c2 = 1) rather than rejected, mirroring how a
// method-of-moments pipeline degrades gracefully on near-exponential data.
// FitHyperExp2 returns an error only for non-positive mean or negative
// variance.
func FitHyperExp2(mean, variance float64) (HyperExp2, error) {
	if mean <= 0 {
		return HyperExp2{}, fmt.Errorf("stats: hyperexponential fit needs positive mean, got %g", mean)
	}
	if variance < 0 {
		return HyperExp2{}, fmt.Errorf("stats: hyperexponential fit needs non-negative variance, got %g", variance)
	}
	c2 := variance / (mean * mean)
	if c2 < 1 {
		c2 = 1
	}
	p1 := float64((1 + math.Sqrt((c2-1)/(c2+1))) / 2)
	return HyperExp2{
		P1:    p1,
		Rate1: 2 * p1 / mean,
		Rate2: 2 * (1 - p1) / mean,
	}, nil
}

// MustFitHyperExp2 is FitHyperExp2 but panics on error. It is intended for
// statically-known parameter tables.
func MustFitHyperExp2(mean, variance float64) HyperExp2 {
	h, err := FitHyperExp2(mean, variance)
	if err != nil {
		panic(err)
	}
	return h
}
