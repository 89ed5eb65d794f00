// Package pe implements the paper's core contribution: the enhanced
// Performance Envelope and its conformance metrics.
//
// A Performance Envelope (PE) is built from (delay, throughput) samples of
// a flow across several trials. The enhanced definition (§3.2) clusters the
// pooled samples with k-means (choosing the "natural" k from the steepest
// drop of the retention curve R(k)), builds one convex hull per
// (trial, cluster), and intersects hulls across trials to discard outliers.
// The original definition from the authors' earlier work (single hull, 5%
// centroid-distance trim) is also provided for the Conf-old columns.
//
// Conformance weighs the PE overlap by sample counts; Conformance-T (§3.3)
// is the maximum conformance achievable by translating the test PE, and the
// arg-max translation yields the (Δ-throughput, Δ-delay) tuning hints.
package pe

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Typed degenerate-input errors, reported by BuildE/EvaluateE. A metric
// over a degenerate envelope is undefined, not zero.
var (
	// ErrNoSamples marks a trial set with no samples at all — e.g. every
	// packet of a measured flow was lost.
	ErrNoSamples = errors.New("pe: no samples in any trial")
	// ErrInsufficientSamples marks a trial set too small for the
	// clustering/hull machinery to be meaningful.
	ErrInsufficientSamples = errors.New("pe: insufficient samples")
	// ErrDegenerateEnvelope marks an envelope whose hull set has no area
	// (collinear samples, or cross-trial intersections all empty).
	ErrDegenerateEnvelope = errors.New("pe: degenerate envelope (no hull with positive area)")
)

// MinSamples is the minimum pooled sample count BuildE accepts before the
// clustering and hull machinery is considered meaningful.
const MinSamples = 10

// Envelope is a Performance Envelope: a set of convex polygons on the
// delay(ms)/throughput(Mbps) plane plus the samples that produced it.
type Envelope struct {
	// Hulls is the set of convex polygons forming the PE.
	Hulls []geom.Polygon
	// K is the number of clusters used.
	K int
	// Trials preserves the per-trial point sets (post-truncation samples).
	Trials [][]geom.Point
	// Retention is R(k) for k = 1..maxK, kept for Fig. 4-style analysis.
	Retention []float64
}

// Options configures PE construction.
type Options struct {
	// MaxK bounds the cluster search (default 6).
	MaxK int
	// ForceK skips natural-k selection when > 0.
	ForceK int
	// Seed makes k-means deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxK <= 0 {
		o.MaxK = 6
	}
	return o
}

// AllPoints returns the pooled samples across trials.
func (e *Envelope) AllPoints() []geom.Point {
	var out []geom.Point
	for _, t := range e.Trials {
		out = append(out, t...)
	}
	return out
}

// Centroid returns the mean of all samples (not the hull centroid): the
// translation search is seeded from centroid differences of the point
// clouds, which are robust to degenerate hulls.
func (e *Envelope) Centroid() geom.Point {
	pts := e.AllPoints()
	if len(pts) == 0 {
		return geom.Point{}
	}
	var c geom.Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Translate returns a copy of the envelope with hulls and points shifted
// by d.
func (e *Envelope) Translate(d geom.Point) *Envelope {
	out := &Envelope{K: e.K, Retention: e.Retention}
	out.Hulls = make([]geom.Polygon, len(e.Hulls))
	for i, h := range e.Hulls {
		out.Hulls[i] = h.Translate(d)
	}
	out.Trials = make([][]geom.Point, len(e.Trials))
	for i, trial := range e.Trials {
		tpts := make([]geom.Point, len(trial))
		for j, p := range trial {
			tpts[j] = p.Add(d)
		}
		out.Trials[i] = tpts
	}
	return out
}

// Contains reports whether p lies in any hull of the envelope.
func (e *Envelope) Contains(p geom.Point) bool {
	for _, h := range e.Hulls {
		if h.Contains(p) {
			return true
		}
	}
	return false
}

// Area returns the union area of the envelope's hulls.
func (e *Envelope) Area() float64 { return geom.UnionArea(e.Hulls) }

// build constructs the envelope that BuildE validates.
func build(trials [][]geom.Point, opts Options) *Envelope {
	opts = opts.withDefaults()
	rng := stats.NewRNG(opts.Seed ^ 0x9e3779b97f4a7c15)
	e := &Envelope{Trials: trials}

	nonEmpty := 0
	for _, t := range trials {
		if len(t) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return e
	}

	k := opts.ForceK
	e.Retention = cluster.RetentionCurve(trials, opts.MaxK, rng.Fork())
	if k <= 0 {
		k = cluster.NaturalK(e.Retention)
	}
	e.K = k
	e.Hulls = cluster.EnvelopeForK(trials, k, rng.Fork())
	return e
}

// BuildE constructs the enhanced (clustered, cross-trial) PE from per-trial
// point sets. Degenerate inputs are typed errors: an all-empty trial set
// returns ErrNoSamples, fewer than MinSamples pooled points returns
// ErrInsufficientSamples, and an envelope whose hulls all collapsed returns
// ErrDegenerateEnvelope. The best-effort envelope is returned alongside the
// error so callers can still inspect or plot it.
func BuildE(trials [][]geom.Point, opts Options) (*Envelope, error) {
	e := build(trials, opts)
	return e, validate(e)
}

// validate reports the typed degeneracy of a built envelope, or nil.
func validate(e *Envelope) error {
	total := 0
	for _, t := range e.Trials {
		total += len(t)
	}
	if total == 0 {
		return fmt.Errorf("%w: %d trials", ErrNoSamples, len(e.Trials))
	}
	if total < MinSamples {
		return fmt.Errorf("%w: %d pooled points across %d trials (need >= %d)",
			ErrInsufficientSamples, total, len(e.Trials), MinSamples)
	}
	if e.Area() <= 0 {
		return fmt.Errorf("%w: %d pooled points, k=%d", ErrDegenerateEnvelope, total, e.K)
	}
	return nil
}

// BuildOld constructs the original PE definition from the authors' earlier
// work: pool the points from all trials, drop the 5% furthest from the
// centroid, take a single convex hull.
func BuildOld(trials [][]geom.Point) *Envelope {
	e := &Envelope{Trials: trials, K: 1}
	pts := e.AllPoints()
	if len(pts) == 0 {
		return e
	}
	var c geom.Point
	for _, p := range pts {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(len(pts)))
	type distPoint struct {
		d float64
		p geom.Point
	}
	dps := make([]distPoint, len(pts))
	for i, p := range pts {
		dps[i] = distPoint{c.Dist(p), p}
	}
	sort.Slice(dps, func(i, j int) bool { return dps[i].d < dps[j].d })
	keep := len(dps) - len(dps)/20 // drop 5%
	kept := make([]geom.Point, keep)
	for i := 0; i < keep; i++ {
		kept[i] = dps[i].p
	}
	hull := geom.ConvexHull(kept)
	if len(hull) >= 3 {
		e.Hulls = []geom.Polygon{hull}
	}
	return e
}

// overlapRegion computes the pairwise intersections between the hulls of
// two envelopes.
func overlapRegion(a, b *Envelope) []geom.Polygon {
	var out []geom.Polygon
	for _, ha := range a.Hulls {
		for _, hb := range b.Hulls {
			if x := geom.Intersect(ha, hb); x.Area() > 0 {
				out = append(out, x)
			}
		}
	}
	return out
}

// Conformance computes the paper's §3.1 metric for a test envelope against
// a reference envelope: the fraction of all samples (test + reference)
// that fall inside the overlap of the two PEs.
func Conformance(test, ref *Envelope) float64 {
	overlap := overlapRegion(test, ref)
	if len(overlap) == 0 {
		return 0
	}
	inRegion := func(p geom.Point) bool {
		for _, poly := range overlap {
			if poly.Contains(p) {
				return true
			}
		}
		return false
	}
	total, in := 0, 0
	for _, p := range test.AllPoints() {
		total++
		if inRegion(p) {
			in++
		}
	}
	for _, p := range ref.AllPoints() {
		total++
		if inRegion(p) {
			in++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// TranslationResult reports Conformance-T and the tuning hints.
type TranslationResult struct {
	// ConformanceT is the maximum conformance over translations.
	ConformanceT float64
	// DeltaThroughputMbps and DeltaDelayMs describe how the test
	// implementation sits relative to the reference: positive Δ-throughput
	// means the test implementation achieves that much more throughput
	// than the reference (the paper's sign convention, cf. mvfst BBR
	// at +9 Mbps).
	DeltaThroughputMbps float64
	DeltaDelayMs        float64
}

// ConformanceT searches for the translation of the test envelope that
// maximizes conformance against the reference (§3.3). The search is seeded
// at the centroid difference and refined on shrinking grids; conformance is
// a piecewise-constant objective, so pattern search is appropriate.
func ConformanceT(test, ref *Envelope) TranslationResult {
	base := ref.Centroid().Sub(test.Centroid())

	best := base
	bestVal := confAt(test, ref, base)
	if v := confAt(test, ref, geom.Point{}); v > bestVal {
		best, bestVal = geom.Point{}, v
	}

	// Pattern search over shrinking steps. Scale steps to the data spread
	// so the search adapts to both 20 Mbps and 100 Mbps regimes.
	spreadX, spreadY := spread(ref)
	stepX := math.Max(spreadX/4, 0.25)
	stepY := math.Max(spreadY/4, 0.25)
	for iter := 0; iter < 60 && (stepX > 0.01 || stepY > 0.01); iter++ {
		improved := false
		for _, d := range []geom.Point{
			{X: stepX, Y: 0}, {X: -stepX, Y: 0},
			{X: 0, Y: stepY}, {X: 0, Y: -stepY},
			{X: stepX, Y: stepY}, {X: -stepX, Y: -stepY},
			{X: stepX, Y: -stepY}, {X: -stepX, Y: stepY},
		} {
			cand := best.Add(d)
			if v := confAt(test, ref, cand); v > bestVal {
				best, bestVal = cand, v
				improved = true
			}
		}
		if !improved {
			stepX /= 2
			stepY /= 2
		}
	}

	// The translation moves test onto ref; the paper reports the offset of
	// the test implementation relative to the reference, which is the
	// negation.
	return TranslationResult{
		ConformanceT:        bestVal,
		DeltaThroughputMbps: -best.Y,
		DeltaDelayMs:        -best.X,
	}
}

// confAt evaluates conformance with the test envelope translated by d.
func confAt(test, ref *Envelope, d geom.Point) float64 {
	return Conformance(test.Translate(d), ref)
}

// spread returns the standard deviation of the reference cloud along each
// axis, for scaling the translation search.
func spread(e *Envelope) (sx, sy float64) {
	pts := e.AllPoints()
	if len(pts) == 0 {
		return 1, 1
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return math.Max(stats.StdDev(xs), 0.1), math.Max(stats.StdDev(ys), 0.1)
}

// Report bundles every §4/§5 metric for one test-vs-reference comparison.
type Report struct {
	Conformance    float64
	ConformanceOld float64
	TranslationResult
	K int
}

// EvaluateE computes the full metric set: enhanced conformance,
// old-definition conformance, and Conformance-T with Δ hints. Degenerate
// inputs are surfaced as typed errors (ErrNoSamples,
// ErrInsufficientSamples, ErrDegenerateEnvelope), wrapped to say which
// side — test or reference — was degenerate; the metrics are then
// undefined, and the best-effort report alongside the error is for
// diagnostics only.
func EvaluateE(testTrials, refTrials [][]geom.Point, opts Options) (Report, error) {
	test := build(testTrials, opts)
	ref := build(refTrials, opts)
	oldTest := BuildOld(testTrials)
	oldRef := BuildOld(refTrials)
	r := Report{
		Conformance:    Conformance(test, ref),
		ConformanceOld: Conformance(oldTest, oldRef),
		K:              test.K,
	}
	r.TranslationResult = ConformanceT(test, ref)
	if r.ConformanceT < r.Conformance {
		// Translation search is a maximization that includes the identity;
		// never report less than the untranslated value.
		r.ConformanceT = r.Conformance
		r.DeltaThroughputMbps = 0
		r.DeltaDelayMs = 0
	}
	if err := validate(test); err != nil {
		return r, fmt.Errorf("test envelope: %w", err)
	}
	if err := validate(ref); err != nil {
		return r, fmt.Errorf("reference envelope: %w", err)
	}
	return r, nil
}
