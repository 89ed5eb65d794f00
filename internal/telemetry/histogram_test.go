package telemetry

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestHistogramBoundsSchema(t *testing.T) {
	if len(histBounds) == 0 {
		t.Fatal("empty bucket schema")
	}
	for i := 1; i < len(histBounds); i++ {
		if histBounds[i] <= histBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d then %d", i, histBounds[i-1], histBounds[i])
		}
	}
	if histBounds[0] != 1 {
		t.Fatalf("first bound = %d, want 1", histBounds[0])
	}
	if last := histBounds[len(histBounds)-1]; last < histMaxBound {
		t.Fatalf("top bound %d does not cover %d", last, histMaxBound)
	}
	// The schema is wire data (beat frames carry bucket indices); pin its
	// size so an accidental regeneration is caught, not silently shipped.
	if len(histBounds) != 160 {
		t.Fatalf("schema has %d finite buckets, want 160", len(histBounds))
	}
}

func TestHistogramObserveQuantile(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 500500 {
		t.Fatalf("sum = %d, want 500500", s.Sum)
	}
	for _, tc := range []struct {
		q     float64
		exact int64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}} {
		got := s.Quantile(tc.q)
		// The bucket upper bound over-reports by at most one growth step
		// (×19/16) and never under-reports the true quantile's bucket.
		if got < tc.exact || got > tc.exact*19/16+1 {
			t.Errorf("q%.2f = %d, want within [%d, %d]", tc.q, got, tc.exact, tc.exact*19/16+1)
		}
	}
	if q := (HistogramSnapshot{}).Quantile(0.99); q != 0 {
		t.Errorf("empty histogram q99 = %d, want 0", q)
	}
}

func TestHistogramDeterministicSnapshot(t *testing.T) {
	mk := func() HistogramSnapshot {
		h := NewHistogram()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 5000; i++ {
			h.Observe(rng.Int63n(1e9))
		}
		return h.Snapshot()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same observations produced different snapshots")
	}
}

// TestHistogramMergeAssociativity is the merge property test: folding a
// set of worker snapshots must yield the same aggregate regardless of
// grouping or order — that is what makes fleet aggregation meaningful.
func TestHistogramMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]HistogramSnapshot, 5)
	for i := range parts {
		h := NewHistogram()
		for j := 0; j < 200+rng.Intn(800); j++ {
			// Mix magnitudes, include overflow-bucket values.
			h.Observe(rng.Int63n(histMaxBound * 2))
		}
		parts[i] = h.Snapshot()
	}
	leftFold := parts[0]
	for _, p := range parts[1:] {
		leftFold = leftFold.Merge(p)
	}
	rightFold := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		rightFold = parts[i].Merge(rightFold)
	}
	pairTree := parts[0].Merge(parts[1]).Merge(parts[2].Merge(parts[3].Merge(parts[4])))
	leftFold.Name, rightFold.Name, pairTree.Name = "", "", ""
	if !reflect.DeepEqual(leftFold, rightFold) {
		t.Fatal("left fold != right fold")
	}
	if !reflect.DeepEqual(leftFold, pairTree) {
		t.Fatal("left fold != pair tree")
	}
	var wantCount int64
	for _, p := range parts {
		wantCount += p.Count
	}
	if leftFold.Count != wantCount {
		t.Fatalf("merged count = %d, want %d", leftFold.Count, wantCount)
	}
	// A merge with the empty snapshot is the identity.
	id := leftFold.Merge(HistogramSnapshot{})
	id.Name = ""
	if !reflect.DeepEqual(id, leftFold) {
		t.Fatal("merge with empty snapshot is not the identity")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1e6))
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b.N
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestRegistryHistogramSamples(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.latency_us")
	if r.Histogram("x.latency_us") != h {
		t.Fatal("same name yielded a different histogram")
	}
	h.ObserveDuration(250 * time.Microsecond)
	h.ObserveDuration(2 * time.Millisecond)
	got := map[string]int64{}
	for _, s := range r.Snapshot() {
		got[s.Name] = s.Value
	}
	if got["x.latency_us.count"] != 2 {
		t.Fatalf("count sample = %d, want 2", got["x.latency_us.count"])
	}
	if p99 := got["x.latency_us.p99"]; p99 < 2000 || p99 > 2500 {
		t.Fatalf("p99 sample = %d, want ~2000", p99)
	}
	hs := r.Histograms()
	if len(hs) != 1 || hs[0].Name != "x.latency_us" || hs[0].Count != 2 {
		t.Fatalf("Histograms() = %+v", hs)
	}
}

// TestInstrumentationAllocFree: every primitive the hot seams call per
// event — histogram observation, counter bump, gauge occupancy — must be
// allocation-free, or the observability plane taxes the very latencies
// it measures.
func TestInstrumentationAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot.latency_us")
	c := r.Counter("hot.total")
	g := r.Gauge("hot.inflight")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		c.Inc()
		g.Add(1)
		g.Add(-1)
	}); n != 0 {
		t.Fatalf("hot-path instrumentation allocates %.1f per op, want 0", n)
	}
}

func TestLoggerByteCompatAndLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "sweep: ", false)
	lg.Infof("worker %s joined", "w1")
	lg.Debugf("hidden at default level")
	want := "sweep: worker w1 joined\n"
	if buf.String() != want {
		t.Fatalf("default-level output = %q, want %q", buf.String(), want)
	}

	buf.Reset()
	lg = NewLogger(&buf, "sweep: ", true)
	lg.Debugf("retry %d", 3)
	if got, want := buf.String(), "sweep: debug: retry 3\n"; got != want {
		t.Fatalf("verbose debug output = %q, want %q", got, want)
	}

	var nilLg *Logger
	nilLg.Infof("must not panic")
	nilLg.Debugf("must not panic")
}
