// Package geom provides the 2-D computational geometry needed by the
// Performance Envelope: convex hulls of delay/throughput point clouds,
// convex polygon intersection, areas, centroids, and point-in-polygon
// tests.
//
// Polygons are represented as vertex slices in counter-clockwise (CCW)
// order. Degenerate "polygons" (empty, single point, segment) are valid
// values with zero area; every operation handles them.
package geom

import (
	"math"
	"sort"
)

// Point is a point on the delay/throughput plane. By repository convention
// X is delay in milliseconds and Y is throughput in Mbit/s, but the package
// is agnostic.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// cross returns the z component of (b-a) x (c-a): positive when a->b->c
// turns counter-clockwise.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Polygon is a convex polygon with vertices in CCW order. len < 3 denotes a
// degenerate polygon with zero area.
type Polygon []Point

// ConvexHull returns the convex hull of pts in CCW order using Andrew's
// monotone chain. Duplicate and collinear boundary points are removed.
// Hulls of fewer than 3 distinct non-collinear points are returned as the
// degenerate polygon of the distinct extreme points.
func ConvexHull(pts []Point) Polygon {
	if len(pts) == 0 {
		return nil
	}
	ps := append([]Point(nil), pts...)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) == 1 {
		return Polygon{ps[0]}
	}
	if len(ps) == 2 {
		return Polygon{ps[0], ps[1]}
	}
	hull := make(Polygon, 0, 2*len(ps))
	// Lower hull.
	for _, p := range ps {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(ps) - 2; i >= 0; i-- {
		p := ps[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	hull = hull[:len(hull)-1] // last point equals first
	if len(hull) < 3 {
		// All points collinear: return the extreme segment.
		return Polygon{ps[0], ps[len(ps)-1]}
	}
	return hull
}

// Area returns the polygon's area (non-negative for CCW input; we return
// the absolute value so callers never see sign artifacts).
func (poly Polygon) Area() float64 {
	if len(poly) < 3 {
		return 0
	}
	var s float64
	for i := range poly {
		j := (i + 1) % len(poly)
		s += poly[i].X*poly[j].Y - poly[j].X*poly[i].Y
	}
	return math.Abs(s) / 2
}

// Centroid returns the polygon's area centroid. For degenerate polygons it
// returns the mean of the vertices. The zero Point is returned for an
// empty polygon.
func (poly Polygon) Centroid() Point {
	switch {
	case len(poly) == 0:
		return Point{}
	case len(poly) < 3:
		var c Point
		for _, p := range poly {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(len(poly)))
	}
	var cx, cy, a float64
	for i := range poly {
		j := (i + 1) % len(poly)
		f := poly[i].X*poly[j].Y - poly[j].X*poly[i].Y
		cx += (poly[i].X + poly[j].X) * f
		cy += (poly[i].Y + poly[j].Y) * f
		a += f
	}
	if a == 0 {
		var c Point
		for _, p := range poly {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(len(poly)))
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Translate returns a copy of the polygon shifted by d.
func (poly Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(poly))
	for i, p := range poly {
		out[i] = p.Add(d)
	}
	return out
}

// Contains reports whether p lies inside or on the boundary of the convex
// polygon. Degenerate polygons contain only points on their segment/vertex,
// within a small tolerance.
func (poly Polygon) Contains(p Point) bool {
	const eps = 1e-9
	switch len(poly) {
	case 0:
		return false
	case 1:
		return poly[0].Dist(p) <= eps
	case 2:
		a, b := poly[0], poly[1]
		if math.Abs(cross(a, b, p)) > eps*math.Max(1, a.Dist(b)) {
			return false
		}
		return p.X >= math.Min(a.X, b.X)-eps && p.X <= math.Max(a.X, b.X)+eps &&
			p.Y >= math.Min(a.Y, b.Y)-eps && p.Y <= math.Max(a.Y, b.Y)+eps
	}
	for i := range poly {
		j := (i + 1) % len(poly)
		if cross(poly[i], poly[j], p) < -eps {
			return false
		}
	}
	return true
}

// clipEdge clips subject against the half-plane to the left of a->b
// (Sutherland–Hodgman step).
func clipEdge(subject Polygon, a, b Point) Polygon {
	if len(subject) == 0 {
		return nil
	}
	var out Polygon
	prev := subject[len(subject)-1]
	prevIn := cross(a, b, prev) >= 0
	for _, cur := range subject {
		curIn := cross(a, b, cur) >= 0
		if curIn != prevIn {
			out = append(out, lineIntersect(prev, cur, a, b))
		}
		if curIn {
			out = append(out, cur)
		}
		prev, prevIn = cur, curIn
	}
	return out
}

// lineIntersect returns the intersection point of segment p1-p2 with the
// infinite line through a-b. Caller guarantees the segment crosses the line.
func lineIntersect(p1, p2, a, b Point) Point {
	d1 := cross(a, b, p1)
	d2 := cross(a, b, p2)
	t := d1 / (d1 - d2)
	return Point{p1.X + t*(p2.X-p1.X), p1.Y + t*(p2.Y-p1.Y)}
}

// Intersect returns the intersection of two convex polygons as a convex
// polygon (possibly degenerate/empty). Both inputs must be convex and CCW.
func Intersect(p, q Polygon) Polygon {
	if len(p) < 3 || len(q) < 3 {
		return nil // degenerate polygons have zero-area intersection
	}
	out := p
	for i := range q {
		j := (i + 1) % len(q)
		out = clipEdge(out, q[i], q[j])
		if len(out) == 0 {
			return nil
		}
	}
	return canonical(out)
}

// IntersectAll intersects a non-empty sequence of convex polygons.
func IntersectAll(polys []Polygon) Polygon {
	if len(polys) == 0 {
		return nil
	}
	out := polys[0]
	for _, p := range polys[1:] {
		out = Intersect(out, p)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// canonical removes duplicate and collinear vertices produced by clipping.
func canonical(poly Polygon) Polygon {
	if len(poly) < 3 {
		return poly
	}
	// Remove near-duplicate consecutive vertices.
	const eps = 1e-12
	var dedup Polygon
	for _, p := range poly {
		if len(dedup) == 0 || dedup[len(dedup)-1].Dist(p) > eps {
			dedup = append(dedup, p)
		}
	}
	if len(dedup) > 1 && dedup[0].Dist(dedup[len(dedup)-1]) <= eps {
		dedup = dedup[:len(dedup)-1]
	}
	if len(dedup) < 3 {
		return dedup
	}
	// Remove collinear vertices.
	var out Polygon
	n := len(dedup)
	for i := 0; i < n; i++ {
		a := dedup[(i+n-1)%n]
		b := dedup[i]
		c := dedup[(i+1)%n]
		if math.Abs(cross(a, b, c)) > eps {
			out = append(out, b)
		}
	}
	if len(out) < 3 {
		return dedup
	}
	return out
}

// UnionArea approximates the area of the union of a set of convex polygons
// via inclusion–exclusion over pairwise and triple intersections when the
// set is small, falling back to Monte-Carlo-free grid sampling for larger
// sets. The PE code only unions small cluster sets (k <= 8), where exact
// inclusion–exclusion up to triples is accurate because final PE clusters
// are disjoint or nearly so.
func UnionArea(polys []Polygon) float64 {
	live := polys[:0:0]
	for _, p := range polys {
		if p.Area() > 0 {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return 0
	case 1:
		return live[0].Area()
	}
	// Inclusion-exclusion, truncated at triples: PE clusters rarely overlap
	// at all, so higher-order terms are negligible.
	var area float64
	for _, p := range live {
		area += p.Area()
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			area -= Intersect(live[i], live[j]).Area()
		}
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			for k := j + 1; k < len(live); k++ {
				area += IntersectAll([]Polygon{live[i], live[j], live[k]}).Area()
			}
		}
	}
	if area < 0 {
		area = 0
	}
	return area
}
