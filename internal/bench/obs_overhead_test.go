package bench

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestObservedTrialOverhead: the sweep runner's per-trial instrumentation
// — one latency-histogram observation plus a counter bump, the exact seam
// RunSweep wires when -obs-addr or -progress is on — feeds the registry a
// live obs server renders: after instrumented single-flow trials the
// /metrics scrape must expose the latency histogram family with every
// trial counted.
//
// That the instrumentation itself is free is pinned exactly elsewhere:
// Observe/Inc/Add are zero-alloc by telemetry.TestInstrumentationAllocFree,
// and the /metrics handler allocates on its own goroutine, off the trial's
// path (scrape concurrency safety is TestScrapeUnderLoad's job in
// internal/obs).
func TestObservedTrialOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real 5s-virtual-time trials; skipped in -short")
	}
	reg := telemetry.NewRegistry()
	srv := &obs.Server{Addr: "127.0.0.1:0", Registry: reg}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("obs server: %v", err)
	}
	defer srv.Stop()

	latHist := reg.Histogram("sweep.trial_latency_us.inproc")
	trials := reg.Counter("worker.trials_total")
	for _, bm := range Suite() {
		if !strings.HasPrefix(bm.Name, "single_flow_") || strings.HasSuffix(bm.Name, "_traced") {
			continue
		}
		start := time.Now()
		bm.Run()
		latHist.ObserveDuration(time.Since(start))
		trials.Inc()
	}
	if latHist.Count() == 0 {
		t.Fatal("no single-flow benchmarks ran")
	}

	// The registry the trials observed is live on /metrics: the scrape
	// must expose the latency histogram family with every trial counted.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("scrape body: %v", err)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE quicbench_sweep_trial_latency_us_inproc histogram") {
		t.Errorf("scrape lacks the trial-latency histogram family:\n%s", text)
	}
	wantCount := fmt.Sprintf("quicbench_sweep_trial_latency_us_inproc_count %d", latHist.Count())
	if !strings.Contains(text, wantCount) {
		t.Errorf("scrape lacks %q:\n%s", wantCount, text)
	}
}
