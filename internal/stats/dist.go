package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrDistParam marks a distribution constructed with degenerate parameters
// (non-positive rate, NaN/Inf bound, inverted support). Every constructor
// error in this file wraps it, so callers match with errors.Is.
var ErrDistParam = errors.New("stats: invalid distribution parameter")

// Exponential samples an exponential distribution with the given rate
// (events per unit): the inter-arrival law of a Poisson process.
type Exponential struct {
	rng  *RNG
	rate float64
}

// NewExponential builds an exponential sampler. The rate must be a
// positive, finite number of events per unit time.
func NewExponential(rng *RNG, rate float64) (*Exponential, error) {
	if rng == nil {
		return nil, fmt.Errorf("%w: exponential requires an RNG", ErrDistParam)
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return nil, fmt.Errorf("%w: exponential rate %g (want positive finite)", ErrDistParam, rate)
	}
	return &Exponential{rng: rng, rate: rate}, nil
}

// Sample draws one inter-arrival interval. The mean is 1/rate.
func (e *Exponential) Sample() float64 {
	return e.rng.ExpFloat64() / e.rate
}

// BoundedPareto samples the bounded (truncated) Pareto distribution on
// [lo, hi] with tail index alpha — the standard heavy-tailed flow-size
// model (most flows short, a fat tail of elephants).
type BoundedPareto struct {
	rng   *RNG
	alpha float64
	lo    float64
	hi    float64
	// Precomputed lo^alpha and hi^alpha for the inversion formula.
	loA, hiA float64
}

// NewBoundedPareto builds a bounded-Pareto sampler. alpha must be positive
// and finite; the support must satisfy 0 < lo < hi with both bounds finite.
func NewBoundedPareto(rng *RNG, alpha, lo, hi float64) (*BoundedPareto, error) {
	if rng == nil {
		return nil, fmt.Errorf("%w: bounded Pareto requires an RNG", ErrDistParam)
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 0 {
		return nil, fmt.Errorf("%w: bounded Pareto alpha %g (want positive finite)", ErrDistParam, alpha)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("%w: bounded Pareto support [%g, %g] must be finite", ErrDistParam, lo, hi)
	}
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("%w: bounded Pareto support [%g, %g] (want 0 < lo < hi)", ErrDistParam, lo, hi)
	}
	return &BoundedPareto{
		rng:   rng,
		alpha: alpha,
		lo:    lo,
		hi:    hi,
		loA:   math.Pow(lo, alpha),
		hiA:   math.Pow(hi, alpha),
	}, nil
}

// Sample draws one variate by inverting the truncated-Pareto CDF:
//
//	x = ( -(U*hi^a - U*lo^a - hi^a) / (hi^a * lo^a) )^(-1/a)
//
// The result always lies inside [lo, hi].
func (b *BoundedPareto) Sample() float64 {
	u := b.rng.Float64()
	x := math.Pow(-(u*b.hiA-u*b.loA-b.hiA)/(b.hiA*b.loA), -1/b.alpha)
	// Clamp: floating-point rounding at u ~ 0 or ~ 1 can land a hair
	// outside the support.
	if x < b.lo {
		x = b.lo
	}
	if x > b.hi {
		x = b.hi
	}
	return x
}

// Quantile returns the p-quantile (0 <= p <= 1) of the distribution in
// closed form, for statistical tests against sampled quantiles.
func (b *BoundedPareto) Quantile(p float64) float64 {
	x := math.Pow(-(p*b.hiA-p*b.loA-b.hiA)/(b.hiA*b.loA), -1/b.alpha)
	if x < b.lo {
		x = b.lo
	}
	if x > b.hi {
		x = b.hi
	}
	return x
}

// Mean returns the distribution's analytic mean.
func (b *BoundedPareto) Mean() float64 {
	a := b.alpha
	if a == 1 {
		return b.lo * b.hi / (b.hi - b.lo) * math.Log(b.hi/b.lo)
	}
	return b.loA / (1 - math.Pow(b.lo/b.hi, a)) * a / (a - 1) *
		(1/math.Pow(b.lo, a-1) - 1/math.Pow(b.hi, a-1))
}
