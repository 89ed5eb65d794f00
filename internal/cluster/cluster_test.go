package cluster

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

// normal draws a standard normal variate from r by the Marsaglia polar
// method.
func normal(r *stats.RNG) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// blob generates n points normally distributed around (cx, cy).
func blob(r *stats.RNG, cx, cy, sd float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: cx + sd*normal(r), Y: cy + sd*normal(r)}
	}
	return pts
}

func TestKMeansTwoBlobs(t *testing.T) {
	r := stats.NewRNG(1)
	pts := append(blob(r, 0, 0, 0.5, 100), blob(r, 10, 10, 0.5, 100)...)
	res := KMeans(pts, 2, stats.NewRNG(2))
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	// Centroids should be near (0,0) and (10,10) in some order.
	c0, c1 := res.Centroids[0], res.Centroids[1]
	near := func(p geom.Point, x, y float64) bool {
		return math.Hypot(p.X-x, p.Y-y) < 1
	}
	ok := (near(c0, 0, 0) && near(c1, 10, 10)) || (near(c0, 10, 10) && near(c1, 0, 0))
	if !ok {
		t.Fatalf("centroids %v %v not near blobs", c0, c1)
	}
}

func TestKMeansAssignsNearestCentroid(t *testing.T) {
	r := stats.NewRNG(3)
	pts := append(blob(r, 0, 0, 1, 50), blob(r, 20, 0, 1, 50)...)
	res := KMeans(pts, 2, stats.NewRNG(4))
	for i, p := range pts {
		got := res.Assign[i]
		best, bestD := 0, math.Inf(1)
		for c, ct := range res.Centroids {
			d := math.Hypot(p.X-ct.X, p.Y-ct.Y)
			if d < bestD {
				best, bestD = c, d
			}
		}
		if got != best {
			t.Fatalf("point %d assigned to %d, nearest centroid is %d", i, got, best)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	r := stats.NewRNG(5)
	pts := append(blob(r, 0, 0, 1, 80), blob(r, 5, 5, 1, 80)...)
	a := KMeans(pts, 3, stats.NewRNG(42))
	b := KMeans(pts, 3, stats.NewRNG(42))
	if a.SSE != b.SSE {
		t.Fatalf("same seed, different SSE: %v vs %v", a.SSE, b.SSE)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	res := KMeans(pts, 5, stats.NewRNG(1))
	if res.K != 5 {
		t.Fatalf("K = %d", res.K)
	}
	if res.Assign[0] == res.Assign[1] {
		t.Fatal("distinct points share cluster when k >= n")
	}
	if res.SSE != 0 {
		t.Fatalf("SSE = %v, want 0", res.SSE)
	}
}

func TestKMeansEmptyInput(t *testing.T) {
	res := KMeans(nil, 3, stats.NewRNG(1))
	if len(res.Assign) != 0 {
		t.Fatal("assignment for empty input")
	}
}

func TestKMeansPanicsOnBadK(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for k=0")
		}
		// The panic value must be an error wrapping ErrBadK so supervised
		// recover paths can classify it with errors.Is.
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", r, r)
		}
		if !errors.Is(err, ErrBadK) {
			t.Fatalf("panic error %v does not wrap ErrBadK", err)
		}
	}()
	KMeans([]geom.Point{{X: 0, Y: 0}}, 0, stats.NewRNG(1))
}

func TestKMeansSSEDecreasesWithK(t *testing.T) {
	r := stats.NewRNG(6)
	pts := append(append(blob(r, 0, 0, 1, 60), blob(r, 10, 0, 1, 60)...), blob(r, 5, 9, 1, 60)...)
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		res := KMeans(pts, k, stats.NewRNG(7))
		if res.SSE > prev*1.05 { // small tolerance: Lloyd's is a local optimum
			t.Fatalf("SSE grew substantially from k=%d to k=%d: %v -> %v", k-1, k, prev, res.SSE)
		}
		prev = res.SSE
	}
}

func TestClustersGrouping(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.1, Y: 0}, {X: 10, Y: 10}}
	res := KMeans(pts, 2, stats.NewRNG(8))
	groups := res.Clusters(pts)
	sizes := []int{len(groups[0]), len(groups[1])}
	if !(sizes[0] == 1 && sizes[1] == 2 || sizes[0] == 2 && sizes[1] == 1) {
		t.Fatalf("cluster sizes = %v", sizes)
	}
}

func TestMatchCentroidsIdentity(t *testing.T) {
	cs := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 0}}
	perm := MatchCentroids(cs, cs)
	for i, p := range perm {
		if p != i {
			t.Fatalf("identity match failed: %v", perm)
		}
	}
}

func TestMatchCentroidsPermuted(t *testing.T) {
	from := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}
	to := []geom.Point{{X: 10.2, Y: 9.9}, {X: 0.1, Y: -0.1}}
	perm := MatchCentroids(from, to)
	if perm[0] != 1 || perm[1] != 0 {
		t.Fatalf("perm = %v, want [1 0]", perm)
	}
}

func TestMatchCentroidsUnequalSizes(t *testing.T) {
	from := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 20}}
	to := []geom.Point{{X: 0, Y: 0}, {X: 20, Y: 20}}
	perm := MatchCentroids(from, to)
	if perm[0] != 0 || perm[2] != 1 {
		t.Fatalf("perm = %v", perm)
	}
	// Middle cluster maps to its nearest remaining centroid.
	if perm[1] != 0 && perm[1] != 1 {
		t.Fatalf("perm = %v", perm)
	}
}

func twoTrialTwoBlobs(seed uint64) [][]geom.Point {
	r := stats.NewRNG(seed)
	mk := func() []geom.Point {
		return append(blob(r, 0, 0, 0.8, 80), blob(r, 15, 15, 0.8, 80)...)
	}
	return [][]geom.Point{mk(), mk()}
}

func TestRetentionCurveDecreasing(t *testing.T) {
	trials := twoTrialTwoBlobs(11)
	rs := RetentionCurve(trials, 5, stats.NewRNG(12))
	for k := 1; k < len(rs); k++ {
		if rs[k] > rs[k-1]+0.05 {
			t.Fatalf("R not (approximately) decreasing: %v", rs)
		}
	}
	if rs[0] <= 0 {
		t.Fatalf("R(1) = %v, want > 0", rs[0])
	}
}

func TestNaturalKTwoBlobs(t *testing.T) {
	trials := twoTrialTwoBlobs(13)
	rs := RetentionCurve(trials, 5, stats.NewRNG(14))
	k := NaturalK(rs)
	// Two well-separated blobs: R should collapse after k=2.
	if k != 2 {
		t.Fatalf("NaturalK = %d (R=%v), want 2", k, rs)
	}
}

func TestNaturalKSingleBlob(t *testing.T) {
	r := stats.NewRNG(15)
	trials := [][]geom.Point{blob(r, 5, 5, 1, 100), blob(r, 5, 5, 1, 100)}
	rs := RetentionCurve(trials, 5, stats.NewRNG(16))
	k := NaturalK(rs)
	if k > 2 {
		t.Fatalf("NaturalK = %d for single blob (R=%v), want <= 2", k, rs)
	}
}

func TestNaturalKFlatCurve(t *testing.T) {
	if k := NaturalK([]float64{0.9, 0.89, 0.895, 0.89}); k != 1 {
		t.Fatalf("flat curve k = %d, want 1", k)
	}
	if k := NaturalK([]float64{0.9}); k != 1 {
		t.Fatal("single-entry curve should give 1")
	}
	if k := NaturalK(nil); k != 1 {
		t.Fatal("empty curve should give 1")
	}
}

func TestNaturalKPicksKBeforeDrop(t *testing.T) {
	// R: k=1 0.95, k=2 0.93, k=3 0.60, k=4 0.55 -> steepest drop after k=2.
	if k := NaturalK([]float64{0.95, 0.93, 0.60, 0.55}); k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
}

func TestEnvelopeForKCoversBlobs(t *testing.T) {
	trials := twoTrialTwoBlobs(17)
	env := EnvelopeForK(trials, 2, stats.NewRNG(18))
	if len(env) != 2 {
		t.Fatalf("envelope has %d polygons, want 2", len(env))
	}
	// The blob centers must be inside the envelope.
	for _, c := range []geom.Point{{X: 0, Y: 0}, {X: 15, Y: 15}} {
		found := false
		for _, poly := range env {
			if poly.Contains(c) {
				found = true
			}
		}
		if !found {
			t.Fatalf("blob center %v not covered by envelope", c)
		}
	}
}

func TestEnvelopeForKEmptyTrials(t *testing.T) {
	if env := EnvelopeForK(nil, 2, stats.NewRNG(1)); env != nil {
		t.Fatal("non-nil envelope for no trials")
	}
}

func BenchmarkKMeans500x3(b *testing.B) {
	r := stats.NewRNG(19)
	pts := append(append(blob(r, 0, 0, 1, 170), blob(r, 10, 0, 1, 170)...), blob(r, 5, 8, 1, 160)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(pts, 3, stats.NewRNG(uint64(i)))
	}
}
