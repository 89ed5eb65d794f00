package bench

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func metric(name string, allocs, bytes int64, events, ns float64) Metric {
	return Metric{Name: name, AllocsPerOp: allocs, BytesPerOp: bytes, EventsPerOp: events, NsPerOp: ns, Iterations: 3}
}

func report(ms ...Metric) Report {
	return Report{Schema: Schema, Benchmarks: ms}
}

func TestCompareNoRegression(t *testing.T) {
	base := report(metric("a", 1000, 50000, 2e6, 5e7))
	// 9% worse allocs stays inside the 10% gate; timing ignored at timeTol 0.
	cur := report(metric("a", 1090, 50000, 2e6, 9e7))
	if regs := Compare(base, cur, 0.10, 0); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareCatchesAllocRegression(t *testing.T) {
	base := report(metric("a", 1000, 50000, 2e6, 5e7))
	cur := report(metric("a", 1200, 50000, 2e6, 5e7))
	regs := Compare(base, cur, 0.10, 0)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("want one allocs_per_op regression, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "allocs_per_op") {
		t.Fatalf("String() = %q", regs[0])
	}
}

func TestCompareCatchesEventGrowthAndMissing(t *testing.T) {
	base := report(
		metric("a", 1000, 50000, 2e6, 5e7),
		metric("b", 1000, 50000, 2e6, 5e7),
	)
	cur := report(metric("a", 1000, 50000, 2.5e6, 5e7))
	regs := Compare(base, cur, 0.10, 0)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (events growth + missing bench), got %v", regs)
	}
	if regs[0].Benchmark != "a" || regs[0].Metric != "events_per_op" {
		t.Fatalf("regs[0] = %v", regs[0])
	}
	if regs[1].Benchmark != "b" || regs[1].Metric != "missing" {
		t.Fatalf("regs[1] = %v", regs[1])
	}
}

func TestCompareTimeToleranceOptIn(t *testing.T) {
	base := report(metric("a", 1000, 50000, 2e6, 5e7))
	cur := report(metric("a", 1000, 50000, 2e6, 9e7)) // 80% slower
	if regs := Compare(base, cur, 0.10, 0); len(regs) != 0 {
		t.Fatalf("timing must not be gated at timeTol 0, got %v", regs)
	}
	regs := Compare(base, cur, 0.10, 0.10)
	if len(regs) != 1 || regs[0].Metric != "ns_per_op" {
		t.Fatalf("want ns_per_op regression with timeTol, got %v", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep := report(metric("a", 1000, 50000, 2e6, 5e7))
	rep.GoVersion = "go0.0"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Benchmarks) != 1 || got.Benchmarks[0] != rep.Benchmarks[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep := report(metric("a", 1, 1, 0, 1))
	rep.Schema = "something-else/v9"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("want schema error")
	}
}

// noopTracer is a telemetry.Tracer that discards every event: with it
// attached every hook in transport/cc is live, so whatever the hook sites
// themselves allocate (a closure, an interface box, a fmt call) shows up
// against the nil-tracer run, and nothing a real sink would add does.
type noopTracer struct{}

func (noopTracer) MetricsUpdated(sim.Time, int, telemetry.Metrics)             {}
func (noopTracer) StateChanged(sim.Time, int, string, string, string)          {}
func (noopTracer) CongestionEvent(sim.Time, int, string, telemetry.Congestion) {}
func (noopTracer) PacketsLost(sim.Time, int, telemetry.LossSample)             {}
func (noopTracer) SpuriousLoss(sim.Time, int, sim.Time)                        {}
func (noopTracer) Rollback(sim.Time, int, int, int)                            {}
func (noopTracer) PTOExpired(sim.Time, int, int)                               {}
func (noopTracer) TransportSummary(sim.Time, int, telemetry.TransportStats)    {}
func (noopTracer) TrialSummary(sim.Time, telemetry.TrialSummary)               {}

// TestDisabledTracerOverhead: the telemetry hooks in transport/cc are
// nil-guarded and pass their events by value, so the hook sites must cost
// no allocations of their own. An interleaved A/B in this process — A the
// single-flow trial with a nil tracer (the path every production trial
// without -trace takes), B the same trial with every hook live into a
// no-op sink — compares medians over abRounds rounds each. The tolerance
// is A's own measured interquartile spread, floored at 1%: nothing is read
// from a file another host wrote.
//
// netem's packet pool is a sync.Pool, so which recycled packet (with or
// without ACK-range capacity) a Get returns depends on GC timing and on
// which P the goroutine sits on; that alone moves allocs/op by ±3% between
// identical runs. The measured window therefore runs on one P with the
// collector parked, where allocs/op is a pure function of the seed and the
// spread is normally zero — the tolerance is there for the host on which
// it is not.
func TestDisabledTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real 5s-virtual-time trials; skipped in -short")
	}
	const abRounds = 9
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name string
		ctrl func() cc.Controller
	}{
		{"single_flow_reno", func() cc.Controller { return cc.NewReno(cc.Config{MSS: 1200}) }},
		{"single_flow_cubic", func() cc.Controller { return cc.NewCubic(cc.Config{MSS: 1200, HyStart: true}) }},
		{"single_flow_bbr", func() cc.Controller { return cc.NewBBR(cc.Config{MSS: 1200}) }},
	} {
		sides := [2]Benchmark{
			{Name: c.name + "/nil", Run: func() uint64 { return singleFlowTraced(c.ctrl, nil) }},
			{Name: c.name + "/noop", Run: func() uint64 { return singleFlowTraced(c.ctrl, noopTracer{}) }},
		}
		var allocs [2][]float64
		for round := 0; round <= abRounds; round++ {
			for side, bm := range sides {
				m := Measure(bm, 0, 1)
				if round > 0 { // round 0 warms the packet pool for both sides
					allocs[side] = append(allocs[side], float64(m.AllocsPerOp))
				}
			}
		}
		a, b := stats.Median(allocs[0]), stats.Median(allocs[1])
		tol := stats.Quantile(allocs[0], 0.75) - stats.Quantile(allocs[0], 0.25)
		if floor := 0.01 * a; tol < floor {
			tol = floor
		}
		if b-a > tol {
			t.Errorf("%s: live-hook allocs/op median %.0f vs nil-tracer median %.0f: +%.0f exceeds the tolerance %.1f (nil-tracer IQR, 1%% floor)\nnil  %v\nnoop %v",
				c.name, b, a, b-a, tol, allocs[0], allocs[1])
		} else {
			t.Logf("%s: allocs/op median nil %.0f, live hooks %.0f (tolerance %.1f)", c.name, a, b, tol)
		}
	}
}

// TestTracedBenchmarkRuns: the traced suite entry must execute (hooks line
// up with the JSONL encoder) and fire the same event count as its untraced
// twin — tracing observes, never schedules.
func TestTracedBenchmarkRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real 5s-virtual-time trials; skipped in -short")
	}
	var traced, untraced Benchmark
	for _, bm := range Suite() {
		switch bm.Name {
		case "single_flow_cubic_traced":
			traced = bm
		case "single_flow_cubic":
			untraced = bm
		}
	}
	if traced.Run == nil || untraced.Run == nil {
		t.Fatal("suite is missing the cubic pair")
	}
	if te, ue := traced.Run(), untraced.Run(); te != ue {
		t.Errorf("traced trial fired %d events, untraced %d — tracing must not perturb the schedule", te, ue)
	}
}

// TestMeasureCountsWork sanity-checks the manual accounting against a
// workload with a known floor: one single-flow trial must fire events and
// report a positive duration.
func TestMeasureCountsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 5s-virtual-time trial; skipped in -short")
	}
	bm := Suite()[0] // single_flow_reno
	m := Measure(bm, 0, 1)
	if m.EventsPerOp < 1000 {
		t.Fatalf("events_per_op = %v, want a real trial's worth", m.EventsPerOp)
	}
	if m.NsPerOp <= 0 || m.EventsPerSec <= 0 {
		t.Fatalf("timing not populated: %+v", m)
	}
}
