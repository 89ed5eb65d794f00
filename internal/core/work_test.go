package core

// The repo's exact, in-process work-metric tests: the pinned-seed
// workloads below fire a seed-determined number of engine events and
// allocate a seed-determined number of objects, so both are asserted as
// constants in code. Timing, and every metric with a noise band, comes
// from benchmark/ (see benchmark/README.md) and nowhere else.

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// benchNet is the shared small-scale network: big enough to leave slow
// start and exercise loss recovery, small enough that every workload runs
// in a fraction of a second.
func benchNet(seed uint64) Network {
	return Network{
		BandwidthMbps: 20,
		RTT:           10 * sim.Millisecond,
		BufferBDP:     1,
		Duration:      5 * sim.Second,
		Trials:        1,
		Seed:          seed,
	}
}

func newReno() cc.Controller  { return cc.NewReno(cc.Config{MSS: 1200}) }
func newCubic() cc.Controller { return cc.NewCubic(cc.Config{MSS: 1200, HyStart: true}) }
func newBBR() cc.Controller   { return cc.NewBBR(cc.Config{MSS: 1200}) }

// newDumbbell builds a dumbbell through netem.NewDumbbellE, failing the
// test on a configuration error.
func newDumbbell(t testing.TB, eng *sim.Engine, cfg netem.DumbbellConfig) *netem.Dumbbell {
	t.Helper()
	db, err := netem.NewDumbbellE(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// singleFlowTraced runs one sender/receiver pair over a dumbbell for 5 s
// and returns the events fired. This is the tightest loop the repo has: sim
// engine, link queueing, transport bookkeeping, and one congestion
// controller, with nothing from the measurement pipeline on top. tr == nil
// exercises exactly the nil-check fast path every production trial without
// -trace takes.
func singleFlowTraced(t testing.TB, newCtrl func() cc.Controller, tr telemetry.Tracer) uint64 {
	eng := sim.New()
	db := newDumbbell(t, eng, netem.DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		QueueBytes:    netem.BDPBytes(20e6, 10*sim.Millisecond),
	})
	var tx *transport.Sender
	cfg := transport.Config{MSS: 1200}
	rx := transport.NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
		db.ReverseLink(1).HandlePacket(p)
	}), 1)
	db.AttachFlow(1, rx, netem.HandlerFunc(func(p *netem.Packet) {
		tx.HandlePacket(p)
	}))
	tx = transport.NewSender(eng, cfg, newCtrl(), db.Bottleneck, 1)
	if tr != nil {
		tx.SetTracer(tr)
	}
	tx.Start()
	eng.RunUntil(5 * sim.Second)
	return eng.Fired()
}

// quiet runs the rest of the test on one P with the collector parked.
// netem's packet pool is a sync.Pool, so which recycled packet (with or
// without ACK-range capacity) a Get returns depends on GC timing and on
// which P the goroutine sits on; that alone moves allocs/op by ±3% between
// identical runs. On one P with no collection, allocs/op is a pure function
// of the seed and of the runs the process has already made (each leaves the
// pool fuller), so a fixed run order reads the same on every host.
func quiet(t *testing.T) {
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// countAllocs runs the workload once and returns the heap objects it
// allocated alongside the events it reports.
func countAllocs(run func() uint64) (allocs, events uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events = run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, events
}

// TestWorkMetrics pins, per workload, the engine events fired (exactly:
// with a pinned seed every run performs the identical event sequence, so
// one event more or fewer is a behaviour change) and the heap objects
// allocated (at most 10% above the value a fresh test process measures
// under quiet after one warm-up run; later runs in one process recycle a
// fuller pool and only read lower).
func TestWorkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real multi-second-virtual-time trials; skipped in -short")
	}
	quiet(t)
	for _, w := range []struct {
		name   string
		events uint64
		allocs uint64 // measured at this table's last update; the ceiling is 10% above
		run    func() uint64
	}{
		{"single_flow_reno", 27438, 161, func() uint64 { return singleFlowTraced(t, newReno, nil) }},
		{"single_flow_cubic", 31176, 261, func() uint64 { return singleFlowTraced(t, newCubic, nil) }},
		{"single_flow_bbr", 35053, 248, func() uint64 { return singleFlowTraced(t, newBBR, nil) }},
		// The full tracing cost: every hook live, JSONL-encoded, and
		// discarded. Sets the price of -trace next to its untraced twin.
		{"single_flow_cubic_traced", 31176, 265, func() uint64 {
			return singleFlowTraced(t, newCubic, telemetry.NewJSONL(io.Discard))
		}},
		{"two_flow_trial_cubic", 27664, 417, func() uint64 {
			res, err := RunTrialE(Spec("quicgo", stacks.CUBIC), Spec("kernel", stacks.CUBIC), benchNet(1), 0)
			if err != nil {
				t.Fatal(err)
			}
			return res.Events
		}},
		// One fault-injected trial: Gilbert–Elliott burst loss on the data
		// path exercises the injector and the spurious-loss paths.
		{"chaos_trial_gilbert", 28271, 407, func() uint64 {
			imp := Impairment{Burst: &GilbertElliott{PGoodBad: 0.002, PBadGood: 0.3, LossBad: 0.5}}
			res, err := runTrial(Spec("quicgo", stacks.CUBIC), Spec("kernel", stacks.CUBIC), benchNet(3), 0, &imp, Bounds{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Events
		}},
		// One conformance measurement per stack at reduced scale: the full
		// pipeline (test + reference trials, clustering, hulls, translation
		// search) across three implementations. It spans many engines, so
		// there is no single event count to pin.
		{"mini_sweep_3stacks", 0, 22632, func() uint64 {
			n := benchNet(7)
			n.Duration = 2 * sim.Second
			for _, stack := range []string{"quicgo", "mvfst", "quiche"} {
				if _, err := Conformance(Spec(stack, stacks.CUBIC), n); err != nil {
					t.Fatalf("%s: %v", stack, err)
				}
			}
			return 0
		}},
		// The many-flow traffic engine at full scale: 1000 concurrent flows
		// (Poisson churn over an initial batch, bounded-Pareto sizes) on one
		// gigabit bottleneck. The ceiling holds its allocs per event at
		// two_flow_trial_cubic's level despite 500× the flows.
		{"many_flow_1000", 615174, 9424, func() uint64 {
			n := Network{
				BandwidthMbps: 1000,
				RTT:           20 * sim.Millisecond,
				BufferBDP:     1,
				Duration:      2 * sim.Second,
				Trials:        1,
				Seed:          5,
			}
			res, err := RunManyFlowTrial(DefaultTrafficSpec(), n, 0, Bounds{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Events
		}},
	} {
		w.run() // warms the packet pool
		allocs, events := countAllocs(w.run)
		if events != w.events {
			t.Errorf("%s: fired %d events, want exactly %d", w.name, events, w.events)
		}
		if ceiling := w.allocs + w.allocs/10; allocs > ceiling {
			t.Errorf("%s: %d allocs/op exceeds the ceiling %d (%d + 10%%)", w.name, allocs, ceiling, w.allocs)
		} else {
			t.Logf("%s: %d events, %d allocs/op (ceiling %d)", w.name, events, allocs, ceiling)
		}
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
// from a file another host wrote. Under quiet the spread is normally zero —
// the tolerance is there for the host on which it is not.
func TestDisabledTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real 5s-virtual-time trials; skipped in -short")
	}
	const abRounds = 9
	quiet(t)
	for _, c := range []struct {
		name string
		ctrl func() cc.Controller
	}{
		{"single_flow_reno", newReno},
		{"single_flow_cubic", newCubic},
		{"single_flow_bbr", newBBR},
	} {
		sides := [2]func() uint64{
			func() uint64 { return singleFlowTraced(t, c.ctrl, nil) },
			func() uint64 { return singleFlowTraced(t, c.ctrl, noopTracer{}) },
		}
		var allocs [2][]float64
		for round := 0; round <= abRounds; round++ {
			for side, run := range sides {
				n, _ := countAllocs(run)
				if round > 0 { // round 0 warms the packet pool for both sides
					allocs[side] = append(allocs[side], float64(n))
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

// TestTracedBenchmarkRuns: the traced workload must execute (hooks line up
// with the JSONL encoder) and fire the same event count as its untraced
// twin — tracing observes, never schedules.
func TestTracedBenchmarkRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real 5s-virtual-time trials; skipped in -short")
	}
	te := singleFlowTraced(t, newCubic, telemetry.NewJSONL(io.Discard))
	ue := singleFlowTraced(t, newCubic, nil)
	if te != ue {
		t.Errorf("traced trial fired %d events, untraced %d — tracing must not perturb the schedule", te, ue)
	}
}
