package main

import "sort"

// quietPass is the per-op-minimum estimator: passes[r][i] is op i's wall
// seconds in pass r, and the result is sum_i min_r passes[r][i].
//
// Every pass does identical seeded work, so an op's durations differ only
// by what the host added (a neighbour's burst, a CPU-frequency mode, a GC
// cycle that happened to land there). The minimum over passes converges on
// the undisturbed cost of each op, and summing the minima rebuilds an
// undisturbed pass even when no single pass was quiet throughout. Because
// the minimum also discards GC cycles that land in only some passes, CPU
// and allocation are never estimated this way: they are taken per pass
// (summarize: the cheapest pass's CPU, the median pass's allocation).
func quietPass(passes [][]float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	var sum float64
	for i := range passes[0] {
		quiet := passes[0][i]
		for _, p := range passes[1:] {
			if i < len(p) && p[i] < quiet {
				quiet = p[i]
			}
		}
		sum += quiet
	}
	return sum
}

// quartiles returns the first and third quartile with the exclusive
// method of Python's statistics.quantiles(v, n=4), which is what the
// driver uses for the spread of a metric.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Rank k*(n+1)/4, 1-based; the interval index is clamped to the
		// data and the weight is not, so short inputs extrapolate as
		// Python's do.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
