package pe

import (
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

// contains reports whether p lies in any hull of e.
func contains(e *Envelope, p geom.Point) bool {
	for _, h := range e.Hulls {
		if h.Contains(p) {
			return true
		}
	}
	return false
}

// cloudTrials generates nTrials point sets around the given blob centers.
func cloudTrials(seed uint64, nTrials, perBlob int, sd float64, centers ...geom.Point) [][]geom.Point {
	r := stats.NewRNG(seed)
	trials := make([][]geom.Point, nTrials)
	for t := range trials {
		for _, c := range centers {
			for i := 0; i < perBlob; i++ {
				trials[t] = append(trials[t], geom.Point{
					X: c.X + sd*normal(r),
					Y: c.Y + sd*normal(r),
				})
			}
		}
	}
	return trials
}

func TestBuildSingleCluster(t *testing.T) {
	trials := cloudTrials(1, 3, 100, 1, geom.Point{X: 10, Y: 20})
	e := build(trials, Options{Seed: 1})
	if e.K != 1 {
		t.Fatalf("K = %d, want 1 for one blob", e.K)
	}
	if len(e.Hulls) != 1 {
		t.Fatalf("hulls = %d", len(e.Hulls))
	}
	if !contains(e, geom.Point{X: 10, Y: 20}) {
		t.Fatal("envelope misses blob center")
	}
}

func TestBuildTwoClusters(t *testing.T) {
	trials := cloudTrials(2, 3, 100, 0.8, geom.Point{X: 10, Y: 5}, geom.Point{X: 30, Y: 18})
	e := build(trials, Options{Seed: 2})
	if e.K != 2 {
		t.Fatalf("K = %d, want 2 (retention %v)", e.K, e.Retention)
	}
	if len(e.Hulls) != 2 {
		t.Fatalf("hulls = %d", len(e.Hulls))
	}
	for _, c := range []geom.Point{{X: 10, Y: 5}, {X: 30, Y: 18}} {
		if !contains(e, c) {
			t.Fatalf("envelope misses center %v", c)
		}
	}
}

func TestBuildForceK(t *testing.T) {
	trials := cloudTrials(3, 2, 80, 1, geom.Point{X: 10, Y: 10})
	e := build(trials, Options{Seed: 3, ForceK: 3})
	if e.K != 3 {
		t.Fatalf("ForceK ignored: K = %d", e.K)
	}
}

func TestBuildEmpty(t *testing.T) {
	e := build(nil, Options{})
	if len(e.Hulls) != 0 || e.Area() != 0 {
		t.Fatal("empty build should be empty")
	}
	e2 := build([][]geom.Point{{}, {}}, Options{})
	if len(e2.Hulls) != 0 {
		t.Fatal("all-empty trials should build empty envelope")
	}
}

func TestCrossTrialIntersectionRemovesOutliers(t *testing.T) {
	trials := cloudTrials(4, 2, 100, 1, geom.Point{X: 10, Y: 10})
	// Poison trial 0 with a distant outlier: the intersection with trial 1
	// must exclude it.
	trials[0] = append(trials[0], geom.Point{X: 100, Y: 100})
	e := build(trials, Options{Seed: 4})
	if contains(e, geom.Point{X: 100, Y: 100}) {
		t.Fatal("outlier survived cross-trial intersection")
	}
}

func TestBuildOldSingleHull(t *testing.T) {
	trials := cloudTrials(5, 3, 100, 1, geom.Point{X: 10, Y: 5}, geom.Point{X: 30, Y: 18})
	e := BuildOld(trials)
	if len(e.Hulls) != 1 {
		t.Fatalf("old PE hulls = %d, want 1", len(e.Hulls))
	}
	// The single hull must cover the empty space between blobs (that is
	// exactly the overestimation the paper fixes).
	mid := geom.Point{X: 20, Y: 11.5}
	if !contains(e, mid) {
		t.Fatal("old single-hull PE should cover inter-blob space")
	}
}

func TestBuildOldTrimsOutliers(t *testing.T) {
	trials := cloudTrials(6, 1, 200, 1, geom.Point{X: 10, Y: 10})
	trials[0] = append(trials[0], geom.Point{X: 500, Y: 500})
	e := BuildOld(trials)
	if contains(e, geom.Point{X: 500, Y: 500}) {
		t.Fatal("5% trim did not remove extreme outlier")
	}
}

func TestConformanceIdentical(t *testing.T) {
	trials := cloudTrials(7, 3, 100, 1, geom.Point{X: 20, Y: 10})
	a := build(trials, Options{Seed: 7})
	b := build(trials, Options{Seed: 8})
	c := Conformance(a, b)
	if c < 0.85 || c > 1 {
		t.Fatalf("self conformance = %v, want near 1", c)
	}
}

func TestConformanceDisjoint(t *testing.T) {
	a := build(cloudTrials(9, 3, 80, 0.5, geom.Point{X: 10, Y: 10}), Options{Seed: 9})
	b := build(cloudTrials(10, 3, 80, 0.5, geom.Point{X: 100, Y: 100}), Options{Seed: 10})
	if c := Conformance(a, b); c != 0 {
		t.Fatalf("disjoint conformance = %v, want 0", c)
	}
}

func TestConformanceRange(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		dx := r.Float64() * 30
		a := build(cloudTrials(uint64(trial), 2, 60, 1, geom.Point{X: 10, Y: 10}), Options{Seed: uint64(trial)})
		b := build(cloudTrials(uint64(trial)+100, 2, 60, 1, geom.Point{X: 10 + dx, Y: 10}), Options{Seed: uint64(trial) + 100})
		c := Conformance(a, b)
		if c < 0 || c > 1 {
			t.Fatalf("conformance out of range: %v", c)
		}
	}
}

func TestConformanceDecreasingWithSeparation(t *testing.T) {
	prev := 1.1
	for _, dx := range []float64{0, 2, 4, 8, 16} {
		a := build(cloudTrials(20, 3, 100, 1, geom.Point{X: 10, Y: 10}), Options{Seed: 20})
		b := build(cloudTrials(21, 3, 100, 1, geom.Point{X: 10 + dx, Y: 10}), Options{Seed: 21})
		c := Conformance(a, b)
		if c > prev+0.05 {
			t.Fatalf("conformance rose with separation %v: %v -> %v", dx, prev, c)
		}
		prev = c
	}
}

func TestConformanceTRecoversTranslation(t *testing.T) {
	// Same shape, translated: conformance low, Conformance-T high, and the
	// recovered delta matches the synthetic offset.
	base := cloudTrials(30, 3, 120, 1, geom.Point{X: 10, Y: 10})
	shift := geom.Point{X: 5, Y: 8} // +5 ms delay, +8 Mbps throughput
	shifted := make([][]geom.Point, len(base))
	for i, trial := range base {
		shifted[i] = make([]geom.Point, len(trial))
		for j, p := range trial {
			shifted[i][j] = p.Add(shift)
		}
	}
	test := build(shifted, Options{Seed: 31})
	ref := build(base, Options{Seed: 32})

	plain := Conformance(test, ref)
	res := ConformanceT(test, ref)
	if res.ConformanceT <= plain {
		t.Fatalf("Conformance-T (%v) not above conformance (%v)", res.ConformanceT, plain)
	}
	if res.ConformanceT < 0.7 {
		t.Fatalf("Conformance-T = %v, want high for pure translation", res.ConformanceT)
	}
	// Delta = test - ref: the test cloud sits +8 Mbps / +5 ms from ref.
	if math.Abs(res.DeltaThroughputMbps-8) > 1.5 {
		t.Fatalf("Δ-tput = %v, want ~8", res.DeltaThroughputMbps)
	}
	if math.Abs(res.DeltaDelayMs-5) > 1.5 {
		t.Fatalf("Δ-delay = %v, want ~5", res.DeltaDelayMs)
	}
}

func TestConformanceTAtLeastConformance(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		a := build(cloudTrials(seed, 2, 60, 1.5, geom.Point{X: 10, Y: 10}), Options{Seed: seed})
		b := build(cloudTrials(seed+50, 2, 60, 1.5, geom.Point{X: 13, Y: 12}), Options{Seed: seed + 50})
		plain := Conformance(a, b)
		res := ConformanceT(a, b)
		if res.ConformanceT+1e-9 < plain {
			t.Fatalf("seed %d: ConfT %v < Conf %v", seed, res.ConformanceT, plain)
		}
	}
}

func TestEvaluateReportFields(t *testing.T) {
	testTrials := cloudTrials(40, 3, 80, 1, geom.Point{X: 15, Y: 18})
	refTrials := cloudTrials(41, 3, 80, 1, geom.Point{X: 10, Y: 10})
	rep, err := EvaluateE(testTrials, refTrials, Options{Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conformance < 0 || rep.Conformance > 1 {
		t.Fatalf("conformance out of range: %v", rep.Conformance)
	}
	if rep.ConformanceOld < 0 || rep.ConformanceOld > 1 {
		t.Fatalf("old conformance out of range: %v", rep.ConformanceOld)
	}
	if rep.ConformanceT < rep.Conformance {
		t.Fatalf("ConfT %v < Conf %v", rep.ConformanceT, rep.Conformance)
	}
	if rep.K < 1 {
		t.Fatalf("K = %d", rep.K)
	}
	// Shifted up and right: positive deltas.
	if rep.DeltaThroughputMbps < 2 {
		t.Fatalf("Δ-tput = %v, want clearly positive", rep.DeltaThroughputMbps)
	}
}

func TestTranslateMovesEverything(t *testing.T) {
	trials := cloudTrials(50, 2, 50, 1, geom.Point{X: 10, Y: 10})
	e := build(trials, Options{Seed: 50})
	d := geom.Point{X: 3, Y: -2}
	moved := e.Translate(d)
	if math.Abs(moved.Centroid().X-(e.Centroid().X+3)) > 1e-9 {
		t.Fatal("centroid did not move")
	}
	if len(moved.Hulls) != len(e.Hulls) {
		t.Fatal("hull count changed")
	}
	if math.Abs(moved.Area()-e.Area()) > 1e-6 {
		t.Fatal("area changed under translation")
	}
}

func TestClusteredPESmallerThanOld(t *testing.T) {
	// Two separated blobs: the clustered PE area must be well below the
	// single-hull PE area (the Fig. 1 effect).
	trials := cloudTrials(60, 3, 100, 0.8, geom.Point{X: 10, Y: 5}, geom.Point{X: 30, Y: 18})
	clustered := build(trials, Options{Seed: 60})
	old := BuildOld(trials)
	if clustered.Area() >= old.Area()*0.6 {
		t.Fatalf("clustered area %v not well below single-hull area %v", clustered.Area(), old.Area())
	}
}

func TestRetentionCurveExposed(t *testing.T) {
	trials := cloudTrials(70, 2, 60, 1, geom.Point{X: 10, Y: 10})
	e := build(trials, Options{Seed: 70, MaxK: 4})
	if len(e.Retention) != 4 {
		t.Fatalf("retention curve length = %d, want 4", len(e.Retention))
	}
	if e.Retention[0] <= 0 || e.Retention[0] > 1 {
		t.Fatalf("R(1) = %v", e.Retention[0])
	}
}
