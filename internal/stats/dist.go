package stats

import (
	"fmt"
	"math"
)

// Distribution is a positive continuous distribution from which the
// workload models draw burst lengths.
type Distribution interface {
	// Sample draws one variate using rng.
	Sample(rng *RNG) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Var returns the distribution variance.
	Var() float64
}

// Exponential is an exponential distribution with the given rate (1/mean).
type Exponential struct {
	Rate float64
}

// NewExponentialMean returns an exponential distribution with the given
// mean. It panics if mean <= 0.
func NewExponentialMean(mean float64) Exponential {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: exponential mean must be positive, got %g", mean))
	}
	return Exponential{Rate: 1 / mean}
}

// Sample draws an exponential variate.
func (e Exponential) Sample(rng *RNG) float64 { return rng.ExpFloat64() / e.Rate }

// SampleInto fills dst with exponential variates. The stream is
// byte-identical to len(dst) successive Sample calls — the batch form
// exists purely to amortize per-call overhead on hot paths.
func (e Exponential) SampleInto(dst []float64, rng *RNG) {
	for i := range dst {
		dst[i] = rng.ExpFloat64() / e.Rate
	}
}

// Mean returns 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Var returns 1/rate^2.
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// CDF returns P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// HyperExp2 is a two-stage hyperexponential distribution: with probability
// P1 the variate is exponential with rate Rate1, otherwise exponential with
// rate Rate2. The paper fits run and idle burst durations with this family
// (coefficient of variation >= 1) using a method-of-moments estimate
// (Trivedi, "Probability and Statistics with Reliability, Queuing, and
// Computer Science Applications", p. 479).
type HyperExp2 struct {
	P1    float64 // probability of the first branch, in [0, 1]
	Rate1 float64 // rate of the first branch
	Rate2 float64 // rate of the second branch
}

// Sample draws a hyperexponential variate.
func (h HyperExp2) Sample(rng *RNG) float64 {
	if rng.Float64() < h.P1 {
		return rng.ExpFloat64() / h.Rate1
	}
	return rng.ExpFloat64() / h.Rate2
}

// SampleInto fills dst with hyperexponential variates. It performs
// exactly the same RNG draws in the same order as len(dst) successive
// Sample calls, so the variate stream — and therefore every figure fed by
// it — is unchanged; batching only removes per-call dispatch overhead in
// the burst generators (DESIGN.md §13).
func (h HyperExp2) SampleInto(dst []float64, rng *RNG) {
	for i := range dst {
		if rng.Float64() < h.P1 {
			dst[i] = rng.ExpFloat64() / h.Rate1
		} else {
			dst[i] = rng.ExpFloat64() / h.Rate2
		}
	}
}

// Mean returns p1/rate1 + p2/rate2.
func (h HyperExp2) Mean() float64 {
	return h.P1/h.Rate1 + (1-h.P1)/h.Rate2
}

// Var returns the variance 2*(p1/r1^2 + p2/r2^2) - mean^2.
func (h HyperExp2) Var() float64 {
	m := h.Mean()
	second := 2 * (h.P1/(h.Rate1*h.Rate1) + (1-h.P1)/(h.Rate2*h.Rate2))
	return second - float64(m*m)
}

// CDF returns P(X <= x).
func (h HyperExp2) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return float64(h.P1*(1-math.Exp(-h.Rate1*x))) + float64((1-h.P1)*(1-math.Exp(-h.Rate2*x)))
}

// SquaredCV returns the squared coefficient of variation Var/Mean^2.
func (h HyperExp2) SquaredCV() float64 {
	m := h.Mean()
	return h.Var() / (m * m)
}

// Deterministic is a degenerate distribution that always returns Value.
// It is useful in tests and ablations that remove burst variability.
type Deterministic struct {
	Value float64
}

// Sample returns the fixed value.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean returns the fixed value.
func (d Deterministic) Mean() float64 { return d.Value }

// Var returns 0.
func (d Deterministic) Var() float64 { return 0 }

// Pareto is a Pareto (power-law) distribution with minimum value Scale
// and tail index Alpha: P(X > x) = (Scale/x)^Alpha for x >= Scale. It is
// the canonical heavy-tailed job-size family — for Alpha <= 2 the
// variance is infinite, and for Alpha <= 1 so is the mean — modeling the
// regime where the paper's hyperexponential fit is the lucky case.
type Pareto struct {
	Scale float64 // minimum value (x_m), must be positive
	Alpha float64 // tail index, must be positive
}

// Sample draws a Pareto variate by inverting the CDF.
func (p Pareto) Sample(rng *RNG) float64 {
	// 1-Float64() is in (0, 1], so the power stays finite.
	return p.Scale / math.Pow(1-rng.Float64(), 1/p.Alpha)
}

// Mean returns alpha*scale/(alpha-1), or +Inf when Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Scale / (p.Alpha - 1)
}

// Var returns the variance, or +Inf when Alpha <= 2.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Scale * p.Scale * a / ((a - 1) * (a - 1) * (a - 2))
}

// CDF returns P(X <= x).
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Scale {
		return 0
	}
	return 1 - math.Pow(p.Scale/x, p.Alpha)
}

// Lognormal is a log-normal distribution: exp(N(Mu, Sigma^2)). With
// large Sigma it is heavy-tailed in the subexponential sense while
// keeping all moments finite, sitting between the hyperexponential fit
// and the Pareto extreme.
type Lognormal struct {
	Mu    float64 // mean of the underlying normal
	Sigma float64 // standard deviation of the underlying normal, >= 0
}

// NewLognormalMean returns a log-normal with the requested mean and the
// given Sigma (Mu is solved from mean = exp(Mu + Sigma^2/2)). It panics
// if mean <= 0.
func NewLognormalMean(mean, sigma float64) Lognormal {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: lognormal mean must be positive, got %g", mean))
	}
	return Lognormal{Mu: math.Log(mean) - float64(sigma*sigma/2), Sigma: sigma}
}

// Sample draws a log-normal variate.
func (l Lognormal) Sample(rng *RNG) float64 {
	return math.Exp(l.Mu + float64(l.Sigma*rng.NormFloat64()))
}

// Mean returns exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + float64(l.Sigma*l.Sigma/2)) }

// Var returns (exp(sigma^2) - 1) * exp(2*mu + sigma^2).
func (l Lognormal) Var() float64 {
	s2 := float64(l.Sigma * l.Sigma)
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

// Clamped restricts another distribution to [Lo, Hi] by clamping each
// variate (not by rejection, so the draw count per Sample is unchanged —
// exactly one underlying draw). Mean and Var delegate to the underlying
// distribution and are therefore upper-tail approximations; the clamp
// exists to keep heavy-tailed job sizes inside the simulation horizon,
// not to be a calibrated truncated distribution.
type Clamped struct {
	Dist   Distribution
	Lo, Hi float64
}

// Sample draws from the underlying distribution and clamps to [Lo, Hi].
func (c Clamped) Sample(rng *RNG) float64 {
	x := c.Dist.Sample(rng)
	if x < c.Lo {
		return c.Lo
	}
	if x > c.Hi {
		return c.Hi
	}
	return x
}

// Mean returns the underlying distribution's mean (see the type comment).
func (c Clamped) Mean() float64 { return c.Dist.Mean() }

// Var returns the underlying distribution's variance (see the type comment).
func (c Clamped) Var() float64 { return c.Dist.Var() }

// Uniform is a uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate on [Lo, Hi).
func (u Uniform) Sample(rng *RNG) float64 { return u.Lo + float64(rng.Float64()*(u.Hi-u.Lo)) }

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Var returns (Hi-Lo)^2/12.
func (u Uniform) Var() float64 { d := u.Hi - u.Lo; return d * d / 12 }
