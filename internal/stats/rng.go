// Package stats provides deterministic pseudo-random number generation and
// small summary-statistics helpers used throughout the benchmark harness.
//
// Experiments must be reproducible run-to-run, so every source of randomness
// in the repository flows through RNG, a splitmix64 generator seeded
// explicitly per trial.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is intentionally tiny: the simulator only needs
// uniform and exponential variates, and we want identical streams on
// every platform. The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Jitter returns a value uniformly distributed in [base*(1-frac), base*(1+frac)].
func (r *RNG) Jitter(base, frac float64) float64 {
	return base * (1 + frac*(2*r.Float64()-1))
}

// Fork derives an independent generator from the current stream. Used to
// hand each component of a simulation its own stream so that adding a
// consumer does not perturb the others.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}
