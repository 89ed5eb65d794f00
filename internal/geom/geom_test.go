package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func square(x0, y0, side float64) Polygon {
	return Polygon{{x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if p.Add(q) != (Point{4, 1}) {
		t.Fatal("Add wrong")
	}
	if p.Sub(q) != (Point{-2, 3}) {
		t.Fatal("Sub wrong")
	}
	if p.Scale(2) != (Point{2, 4}) {
		t.Fatal("Scale wrong")
	}
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v", d)
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(h), h)
	}
	if a := h.Area(); math.Abs(a-1) > 1e-12 {
		t.Fatalf("hull area = %v, want 1", a)
	}
}

func TestConvexHullRemovesCollinear(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 2}}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("hull = %v, want 4 corners", h)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Fatal("hull of nothing should be nil")
	}
	if h := ConvexHull([]Point{{1, 1}}); len(h) != 1 {
		t.Fatalf("hull of single point = %v", h)
	}
	if h := ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}}); len(h) != 1 {
		t.Fatalf("hull of repeated point = %v", h)
	}
	h := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 {
		t.Fatalf("hull of collinear points = %v, want segment", h)
	}
	if h.Area() != 0 {
		t.Fatal("degenerate hull area != 0")
	}
}

func TestAreaTriangle(t *testing.T) {
	tri := Polygon{{0, 0}, {4, 0}, {0, 3}}
	if a := tri.Area(); math.Abs(a-6) > 1e-12 {
		t.Fatalf("triangle area = %v, want 6", a)
	}
}

func TestCentroid(t *testing.T) {
	sq := square(0, 0, 2)
	c := sq.Centroid()
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Fatalf("centroid = %v, want (1,1)", c)
	}
	seg := Polygon{{0, 0}, {2, 0}}
	c = seg.Centroid()
	if c != (Point{1, 0}) {
		t.Fatalf("segment centroid = %v", c)
	}
	if (Polygon{}).Centroid() != (Point{}) {
		t.Fatal("empty centroid not zero")
	}
}

func TestTranslate(t *testing.T) {
	sq := square(0, 0, 1).Translate(Point{5, -2})
	if sq[0] != (Point{5, -2}) {
		t.Fatalf("translate wrong: %v", sq)
	}
}

func TestContains(t *testing.T) {
	sq := square(0, 0, 2)
	inside := []Point{{1, 1}, {0, 0}, {2, 2}, {1, 0}, {2, 1}}
	for _, p := range inside {
		if !sq.Contains(p) {
			t.Fatalf("square should contain %v", p)
		}
	}
	outside := []Point{{-0.1, 1}, {2.1, 1}, {1, -0.1}, {1, 2.1}, {3, 3}}
	for _, p := range outside {
		if sq.Contains(p) {
			t.Fatalf("square should not contain %v", p)
		}
	}
}

func TestContainsDegenerate(t *testing.T) {
	pt := Polygon{{1, 1}}
	if !pt.Contains(Point{1, 1}) || pt.Contains(Point{1, 2}) {
		t.Fatal("point polygon containment wrong")
	}
	seg := Polygon{{0, 0}, {2, 0}}
	if !seg.Contains(Point{1, 0}) {
		t.Fatal("segment should contain midpoint")
	}
	if seg.Contains(Point{1, 1}) || seg.Contains(Point{3, 0}) {
		t.Fatal("segment contains point off segment")
	}
	if (Polygon{}).Contains(Point{0, 0}) {
		t.Fatal("empty polygon contains a point")
	}
}

func TestIntersectOverlappingSquares(t *testing.T) {
	a := square(0, 0, 2)
	b := square(1, 1, 2)
	x := Intersect(a, b)
	if got := x.Area(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("intersection area = %v, want 1", got)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := square(0, 0, 1)
	b := square(5, 5, 1)
	if x := Intersect(a, b); x.Area() != 0 {
		t.Fatalf("disjoint intersection area = %v", x.Area())
	}
}

func TestIntersectNested(t *testing.T) {
	outer := square(0, 0, 10)
	inner := square(3, 3, 2)
	x := Intersect(outer, inner)
	if math.Abs(x.Area()-4) > 1e-9 {
		t.Fatalf("nested intersection = %v, want 4", x.Area())
	}
	// And the other order.
	x = Intersect(inner, outer)
	if math.Abs(x.Area()-4) > 1e-9 {
		t.Fatalf("nested intersection (swapped) = %v, want 4", x.Area())
	}
}

func TestIntersectIdentical(t *testing.T) {
	a := square(0, 0, 3)
	x := Intersect(a, a)
	if math.Abs(x.Area()-9) > 1e-9 {
		t.Fatalf("self intersection = %v, want 9", x.Area())
	}
}

func TestIntersectDegenerateInput(t *testing.T) {
	if Intersect(nil, square(0, 0, 1)) != nil {
		t.Fatal("nil ∩ square should be nil")
	}
	seg := Polygon{{0, 0}, {1, 0}}
	if Intersect(seg, square(0, 0, 1)) != nil {
		t.Fatal("segment ∩ square should be nil (zero area)")
	}
}

func TestIntersectAll(t *testing.T) {
	polys := []Polygon{square(0, 0, 4), square(1, 1, 4), square(2, 0, 4)}
	x := IntersectAll(polys)
	// Intersection is [2,4]x[1,4] ∩ [0,4]x[0,4] etc => x in [2,4], y in [1,4]
	if math.Abs(x.Area()-2*3) > 1e-9 {
		t.Fatalf("IntersectAll area = %v, want 6", x.Area())
	}
	if IntersectAll(nil) != nil {
		t.Fatal("IntersectAll(nil) != nil")
	}
}

func TestUnionAreaDisjoint(t *testing.T) {
	polys := []Polygon{square(0, 0, 1), square(10, 10, 2)}
	if got := UnionArea(polys); math.Abs(got-5) > 1e-9 {
		t.Fatalf("union = %v, want 5", got)
	}
}

func TestUnionAreaOverlap(t *testing.T) {
	polys := []Polygon{square(0, 0, 2), square(1, 1, 2)}
	if got := UnionArea(polys); math.Abs(got-7) > 1e-9 {
		t.Fatalf("union = %v, want 7", got)
	}
}

func TestUnionAreaEmpty(t *testing.T) {
	if UnionArea(nil) != 0 {
		t.Fatal("union of nothing != 0")
	}
	if UnionArea([]Polygon{{{0, 0}, {1, 1}}}) != 0 {
		t.Fatal("union of degenerate != 0")
	}
}

func randomPoints(r *stats.RNG, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * 100, r.Float64() * 100}
	}
	return pts
}

// Property: every input point is contained in its convex hull.
func TestPropHullContainsPoints(t *testing.T) {
	r := stats.NewRNG(1)
	for trial := 0; trial < 100; trial++ {
		pts := randomPoints(r, 3+r.Intn(50))
		h := ConvexHull(pts)
		for _, p := range pts {
			if !h.Contains(p) {
				t.Fatalf("hull %v does not contain input point %v", h, p)
			}
		}
	}
}

// Property: hull(hull(P)) == hull(P) (idempotence, up to vertex rotation).
func TestPropHullIdempotent(t *testing.T) {
	r := stats.NewRNG(2)
	for trial := 0; trial < 100; trial++ {
		pts := randomPoints(r, 3+r.Intn(50))
		h1 := ConvexHull(pts)
		h2 := ConvexHull(h1)
		if math.Abs(h1.Area()-h2.Area()) > 1e-9 {
			t.Fatalf("idempotence violated: %v vs %v", h1.Area(), h2.Area())
		}
		if len(h1) != len(h2) {
			t.Fatalf("vertex count changed: %d vs %d", len(h1), len(h2))
		}
	}
}

// Property: hull is order-invariant.
func TestPropHullOrderInvariant(t *testing.T) {
	r := stats.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		pts := randomPoints(r, 5+r.Intn(30))
		h1 := ConvexHull(pts)
		// Shuffle.
		shuffled := append([]Point(nil), pts...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		h2 := ConvexHull(shuffled)
		if math.Abs(h1.Area()-h2.Area()) > 1e-9 {
			t.Fatalf("order dependence: %v vs %v", h1.Area(), h2.Area())
		}
	}
}

// Property: intersection area <= min of the two areas, and the intersection
// is contained in both polygons.
func TestPropIntersectionBounds(t *testing.T) {
	r := stats.NewRNG(4)
	for trial := 0; trial < 100; trial++ {
		a := ConvexHull(randomPoints(r, 3+r.Intn(20)))
		b := ConvexHull(randomPoints(r, 3+r.Intn(20)))
		x := Intersect(a, b)
		ax, bx := a.Area(), b.Area()
		if x.Area() > math.Min(ax, bx)+1e-6 {
			t.Fatalf("intersection bigger than inputs: %v > min(%v,%v)", x.Area(), ax, bx)
		}
		for _, v := range x {
			// Vertices of the intersection must lie in (or on) both inputs;
			// allow a small epsilon for clipping arithmetic.
			if !containsEps(a, v, 1e-6) || !containsEps(b, v, 1e-6) {
				t.Fatalf("intersection vertex %v escapes inputs", v)
			}
		}
	}
}

// Property: intersection is commutative in area.
func TestPropIntersectionCommutative(t *testing.T) {
	r := stats.NewRNG(5)
	for trial := 0; trial < 100; trial++ {
		a := ConvexHull(randomPoints(r, 3+r.Intn(20)))
		b := ConvexHull(randomPoints(r, 3+r.Intn(20)))
		if math.Abs(Intersect(a, b).Area()-Intersect(b, a).Area()) > 1e-6 {
			t.Fatal("intersection not commutative")
		}
	}
}

// Property: translating a polygon preserves its area.
func TestPropTranslatePreservesArea(t *testing.T) {
	f := func(seed uint64, dx, dy float64) bool {
		if math.IsNaN(dx) || math.IsInf(dx, 0) || math.IsNaN(dy) || math.IsInf(dy, 0) {
			return true
		}
		dx = math.Mod(dx, 1e6)
		dy = math.Mod(dy, 1e6)
		r := stats.NewRNG(seed)
		p := ConvexHull(randomPoints(r, 3+r.Intn(20)))
		q := p.Translate(Point{dx, dy})
		// The shoelace formula's rounding error grows with the square of the
		// coordinate magnitude (cross products of ~scale-sized terms), so the
		// tolerance must be conditioned on the translation distance or large
		// offsets fail spuriously on exact-area hulls.
		scale := math.Max(100, math.Max(math.Abs(dx), math.Abs(dy)))
		tol := math.Max(1e-12*scale*scale, 1e-6*math.Max(1, p.Area()))
		return math.Abs(p.Area()-q.Area()) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func containsEps(poly Polygon, p Point, eps float64) bool {
	if len(poly) < 3 {
		return poly.Contains(p)
	}
	for i := range poly {
		j := (i + 1) % len(poly)
		if cross(poly[i], poly[j], p) < -eps*math.Max(1, poly[i].Dist(poly[j])) {
			return false
		}
	}
	return true
}

func BenchmarkConvexHull1000(b *testing.B) {
	r := stats.NewRNG(9)
	pts := randomPoints(r, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvexHull(pts)
	}
}

func BenchmarkIntersectConvex(b *testing.B) {
	r := stats.NewRNG(10)
	a := ConvexHull(randomPoints(r, 100))
	c := ConvexHull(randomPoints(r, 100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect(a, c)
	}
}
