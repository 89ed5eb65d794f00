// Package cluster implements the k-means machinery behind the clustered
// Performance Envelope: k-means with k-means++ seeding, matching of
// clusters across trials by centroid proximity, and the paper's
// "natural k" selection rule based on the steepest drop of the
// intersection-over-union retention curve R(k).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/stats"
)

// ErrBadK marks a non-positive cluster count.
var ErrBadK = errors.New("cluster: k must be positive")

// Result is the outcome of one k-means run.
type Result struct {
	K         int
	Centroids []geom.Point
	// Assign[i] is the cluster index of input point i.
	Assign []int
	// SSE is the total within-cluster sum of squared distances.
	SSE float64
}

// Clusters splits the input points by assignment; empty clusters are
// preserved as empty slices so indices line up with Centroids.
func (r *Result) Clusters(pts []geom.Point) [][]geom.Point {
	out := make([][]geom.Point, r.K)
	for i, p := range pts {
		c := r.Assign[i]
		out[c] = append(out[c], p)
	}
	return out
}

// KMeans clusters pts into k groups using Lloyd's algorithm with
// k-means++ seeding. The rng makes runs deterministic. It panics when
// k <= 0; the panic value is an error
// wrapping ErrBadK so recover paths can match it with errors.Is. When
// k >= len(pts), each point is its own cluster.
func KMeans(pts []geom.Point, k int, rng *stats.RNG) *Result {
	if k <= 0 {
		panic(fmt.Errorf("%w: got %d", ErrBadK, k))
	}
	n := len(pts)
	if n == 0 {
		return &Result{K: k, Centroids: make([]geom.Point, k), Assign: nil}
	}
	if k >= n {
		res := &Result{K: k, Centroids: make([]geom.Point, k), Assign: make([]int, n)}
		for i, p := range pts {
			res.Centroids[i] = p
			res.Assign[i] = i
		}
		// Surplus centroids duplicate the last point; they stay empty.
		for i := n; i < k; i++ {
			res.Centroids[i] = pts[n-1]
		}
		return res
	}

	centroids := seedPlusPlus(pts, k, rng)
	assign := make([]int, n)
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ct := range centroids {
				d := sqDist(p, ct)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([]geom.Point, k)
		counts := make([]int, k)
		for i, p := range pts {
			c := assign[i]
			sums[c] = sums[c].Add(p)
			counts[c]++
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c].Scale(1 / float64(counts[c]))
			} else {
				// Re-seed an empty cluster at the point furthest from its
				// current centroid, a standard fix that avoids dead clusters.
				centroids[c] = furthestPoint(pts, centroids, assign)
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	res := &Result{K: k, Centroids: centroids, Assign: assign}
	for i, p := range pts {
		res.SSE += sqDist(p, centroids[assign[i]])
	}
	return res
}

// KMeansBest runs KMeans `restarts` times with independent seedings and
// returns the result with the lowest SSE. Lloyd's algorithm only finds
// local optima; restarting stabilizes the retention curve R(k).
func KMeansBest(pts []geom.Point, k, restarts int, rng *stats.RNG) *Result {
	if restarts < 1 {
		restarts = 1
	}
	var best *Result
	for i := 0; i < restarts; i++ {
		res := KMeans(pts, k, rng.Fork())
		if best == nil || res.SSE < best.SSE {
			best = res
		}
	}
	return best
}

func sqDist(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// seedPlusPlus implements k-means++ initial centroid selection.
func seedPlusPlus(pts []geom.Point, k int, rng *stats.RNG) []geom.Point {
	centroids := make([]geom.Point, 0, k)
	centroids = append(centroids, pts[rng.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centroids) < k {
		var total float64
		for i, p := range pts {
			d := math.Inf(1)
			for _, c := range centroids {
				if v := sqDist(p, c); v < d {
					d = v
				}
			}
			d2[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			centroids = append(centroids, pts[rng.Intn(len(pts))])
			continue
		}
		target := rng.Float64() * total
		var acc float64
		chosen := len(pts) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				chosen = i
				break
			}
		}
		centroids = append(centroids, pts[chosen])
	}
	return centroids
}

func furthestPoint(pts []geom.Point, centroids []geom.Point, assign []int) geom.Point {
	best := pts[0]
	bestD := -1.0
	for i, p := range pts {
		d := sqDist(p, centroids[assign[i]])
		if d > bestD {
			best, bestD = p, d
		}
	}
	return best
}

// MatchCentroids returns a permutation perm of 0..k-1 mapping clusters of
// `from` onto the nearest clusters of `to` (greedy nearest-pair matching,
// which is exact for well-separated clusters). perm[i] = index in `to`
// matched to cluster i of `from`.
func MatchCentroids(from, to []geom.Point) []int {
	k := len(from)
	perm := make([]int, k)
	usedTo := make([]bool, len(to))
	type pair struct {
		d    float64
		f, t int
	}
	var pairs []pair
	for f := range from {
		for t := range to {
			pairs = append(pairs, pair{sqDist(from[f], to[t]), f, t})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })
	assigned := make([]bool, k)
	remaining := k
	for _, p := range pairs {
		if remaining == 0 {
			break
		}
		if assigned[p.f] || usedTo[p.t] {
			continue
		}
		perm[p.f] = p.t
		assigned[p.f] = true
		usedTo[p.t] = true
		remaining--
	}
	// If `to` is smaller than `from`, leftover clusters map to their nearest
	// centroid regardless of uniqueness.
	for f := range from {
		if !assigned[f] {
			best, bestD := 0, math.Inf(1)
			for t := range to {
				if d := sqDist(from[f], to[t]); d < bestD {
					best, bestD = t, d
				}
			}
			perm[f] = best
		}
	}
	return perm
}

// RetentionCurve computes R(k) for k = 1..maxK following §3.2 of the paper:
// for each k, each trial's points are grouped by the pooled clustering,
// a convex hull is built per (trial, cluster), hulls of corresponding
// clusters are intersected across trials, and R is the fraction of all
// points (over all trials) contained in the resulting envelope.
//
// trials is the per-trial point sets. The returned slice has maxK entries,
// R[0] corresponding to k=1.
func RetentionCurve(trials [][]geom.Point, maxK int, rng *stats.RNG) []float64 {
	rs := make([]float64, maxK)
	for k := 1; k <= maxK; k++ {
		hulls := EnvelopeForK(trials, k, rng.Fork())
		rs[k-1] = retention(trials, hulls)
	}
	return rs
}

// EnvelopeForK builds the clustered, cross-trial-intersected envelope for a
// given k, following §3.2 exactly: each trial's points are clustered
// *independently* with k-means, clusters are matched across trials by
// centroid proximity, and corresponding hulls are intersected.
//
// Independent per-trial clustering is what makes R(k) drop steeply past
// the natural k: splitting a real cluster lands the split differently in
// every trial (different seeding), so the matched-hull intersections
// collapse, while at the natural k every trial recovers the same clusters.
func EnvelopeForK(trials [][]geom.Point, k int, rng *stats.RNG) []geom.Polygon {
	var results []*Result
	var sets [][]geom.Point
	for _, pts := range trials {
		if len(pts) == 0 {
			continue
		}
		results = append(results, KMeansBest(pts, k, 5, rng.Fork()))
		sets = append(sets, pts)
	}
	if len(results) == 0 {
		return nil
	}
	base := results[0]
	hulls := make([][]geom.Polygon, k)
	for c, members := range base.Clusters(sets[0]) {
		if len(members) > 0 {
			hulls[c] = append(hulls[c], geom.ConvexHull(members))
		}
	}
	for ti := 1; ti < len(results); ti++ {
		perm := MatchCentroids(results[ti].Centroids, base.Centroids)
		for c, members := range results[ti].Clusters(sets[ti]) {
			if len(members) > 0 {
				hulls[perm[c]] = append(hulls[perm[c]], geom.ConvexHull(members))
			}
		}
	}
	var envelope []geom.Polygon
	for c := 0; c < k; c++ {
		// A cluster must be present in every trial; otherwise its
		// cross-trial intersection is empty.
		if len(hulls[c]) != len(results) {
			continue
		}
		inter := geom.IntersectAll(hulls[c])
		if inter.Area() > 0 {
			envelope = append(envelope, inter)
		}
	}
	return envelope
}

// retention computes the fraction of all points contained in any polygon of
// the envelope.
func retention(trials [][]geom.Point, envelope []geom.Polygon) float64 {
	total, in := 0, 0
	for _, pts := range trials {
		for _, p := range pts {
			total++
			for _, poly := range envelope {
				if poly.Contains(p) {
					in++
					break
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// NaturalK picks the number of clusters as the k immediately before the
// steepest drop in R(k), per §3.2. rs[0] is R(1).
//
// A CCA with genuine cluster structure (BBR's two phases, CUBIC's
// throughput levels) keeps R high up to the natural k and then collapses:
// every trial recovers the same clusters up to k, and arbitrary splits
// beyond k land differently per trial. Structureless point clouds decay
// steadily from k = 1 instead. We therefore accept the steepest-drop k
// only when retention was still close to R(1) just before the drop;
// otherwise the cloud has no natural structure and k = 1.
func NaturalK(rs []float64) int {
	if len(rs) <= 1 {
		return 1
	}
	bestK, bestDrop := 1, math.Inf(-1)
	for k := 1; k < len(rs); k++ {
		drop := rs[k-1] - rs[k]
		if drop > bestDrop {
			bestDrop = drop
			bestK = k // k before the drop (1-based: rs[k-1] is R(k))
		}
	}
	const (
		minDrop       = 0.02
		retentionFrac = 0.80 // R(k*) must be >= this fraction of R(1)
	)
	if bestDrop < minDrop {
		return 1
	}
	if rs[0] > 0 && rs[bestK-1] < retentionFrac*rs[0] {
		return 1
	}
	return bestK
}
