package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that also tracks its highwater
// mark (queue occupancy, heartbeat age, and similar saw-tooth signals).
type Gauge struct{ v, high atomic.Int64 }

// Set records the current value and updates the highwater mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Add adjusts the gauge by delta atomically (occupancy up/down ticks)
// and updates the highwater mark.
func (g *Gauge) Add(delta int64) {
	v := g.v.Add(delta)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value reads the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// High reads the highwater mark.
func (g *Gauge) High() int64 { return g.high.Load() }

// Sample kinds, for renderers that care about metric semantics (the
// Prometheus exposition needs counter vs gauge # TYPE lines; histogram
// summary samples are derived and skipped there in favor of the full
// bucket families).
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindHist    = "hist"
)

// Sample is one named value in a registry snapshot.
type Sample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Kind  string `json:"kind,omitempty"`
}

// Registry is a concurrency-safe collection of named counters, gauges,
// and read-on-demand gauge functions. Snapshots are sorted by name so
// rendered output is stable.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Safe for concurrent callers; the same name always yields the same
// counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. All histograms share the process-global bucket schema, so
// any two registries' histograms of the same name merge exactly.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers (or replaces) a gauge function sampled at
// snapshot time — for values owned elsewhere, like pool statistics.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot returns every metric as name/value samples, sorted by name.
// Gauges contribute two samples: "<name>" and "<name>.high"; histograms
// contribute "<name>.count", "<name>.p50", "<name>.p90", and
// "<name>.p99" summaries (the full bucket data is on Histograms).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+2*len(r.gauges)+len(r.funcs)+4*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Value: c.Value(), Kind: KindCounter})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Value: g.Value(), Kind: KindGauge})
		out = append(out, Sample{Name: name + ".high", Value: g.High(), Kind: KindGauge})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		out = append(out, Sample{Name: name + ".count", Value: s.Count, Kind: KindHist})
		out = append(out, Sample{Name: name + ".p50", Value: s.Quantile(0.50), Kind: KindHist})
		out = append(out, Sample{Name: name + ".p90", Value: s.Quantile(0.90), Kind: KindHist})
		out = append(out, Sample{Name: name + ".p99", Value: s.Quantile(0.99), Kind: KindHist})
	}
	fns := make([]struct {
		name string
		fn   func() int64
	}, 0, len(r.funcs))
	for name, fn := range r.funcs {
		fns = append(fns, struct {
			name string
			fn   func() int64
		}{name, fn})
	}
	r.mu.Unlock()
	// Sample registered functions outside the lock: they may take other
	// locks of their own.
	for _, f := range fns {
		out = append(out, Sample{Name: f.name, Value: f.fn(), Kind: KindGauge})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Histograms returns a full snapshot (bucket counts included) of every
// registered histogram, sorted by name — the payload piggybacked on
// fleet beat frames and rendered as Prometheus histogram families.
func (r *Registry) Histograms() []HistogramSnapshot {
	r.mu.Lock()
	hs := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.hists))
	for name, h := range r.hists {
		hs = append(hs, struct {
			name string
			h    *Histogram
		}{name, h})
	}
	r.mu.Unlock()
	out := make([]HistogramSnapshot, 0, len(hs))
	for _, e := range hs {
		s := e.h.Snapshot()
		s.Name = e.name
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
