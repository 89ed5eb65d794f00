package telemetry

import (
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runner.retries")
	c.Inc()
	c.Add(2)
	if r.Counter("runner.retries").Value() != 3 {
		t.Errorf("counter = %d, want 3 (same name must yield same counter)", c.Value())
	}
	g := r.Gauge("queue.bytes")
	g.Set(100)
	g.Set(400)
	g.Set(50)
	if g.Value() != 50 || g.High() != 400 {
		t.Errorf("gauge value/high = %d/%d, want 50/400", g.Value(), g.High())
	}
	r.RegisterFunc("pool.live", func() int64 { return 7 })

	snap := r.Snapshot()
	got := map[string]int64{}
	for i, s := range snap {
		got[s.Name] = s.Value
		if i > 0 && snap[i-1].Name >= s.Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, s.Name)
		}
	}
	for name, want := range map[string]int64{
		"runner.retries": 3, "queue.bytes": 50, "queue.bytes.high": 400, "pool.live": 7,
	} {
		if got[name] != want {
			t.Errorf("snapshot[%s] = %d, want %d", name, got[name], want)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(j))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", v)
	}
	if h := r.Gauge("g").High(); h != 999 {
		t.Errorf("concurrent gauge high = %d, want 999", h)
	}
}
