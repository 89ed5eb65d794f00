package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stacks"
)

// The traced run rebuilds core.runTrial from the layers' public functions.
// If core.runTrial changes and the rebuild does not follow, the layer
// numbers would describe a trial nobody runs; these tests (and the run-time
// trace.fidelity_ok) make that drift loud. They also show the interposers
// observe without perturbing: attached but idle, and attached and timing,
// the trial is the one core runs.
func TestRecomposedTrialMatchesCore(t *testing.T) {
	n := core.Network{BandwidthMbps: 20, RTT: 10 * sim.Millisecond, BufferBDP: 1, Duration: 2 * sim.Second, Trials: 1, Seed: 7}
	for _, cca := range []stacks.CCA{stacks.CUBIC, stacks.BBR, stacks.Reno} {
		test := core.Spec("mvfst", cca)
		ref := core.Flow{Stack: stacks.Reference(), CCA: cca}
		for _, trial := range []int{0, 1000} {
			a := test
			if trial == 1000 {
				a = ref // the reference side: kernel against kernel
			}
			want, err := core.RunTrialE(a, ref, n, trial)
			if err != nil {
				t.Fatalf("%s trial %d: core: %v", cca, trial, err)
			}
			for _, mode := range []struct {
				name string
				on   bool
			}{{"idle", false}, {"timing", true}} {
				h := newHot(mode.on)
				got, err := recomposeTrial(a, ref, n, trial, h, nil)
				if err != nil {
					t.Fatalf("%s trial %d %s: %v", cca, trial, mode.name, err)
				}
				if got.Events != want.Events || got.MeanMbps != want.MeanMbps || got.Drops != want.Drops {
					t.Errorf("%s trial %d, interposers %s: events %d mbps %v drops %d; core has events %d mbps %v drops %d",
						cca, trial, mode.name, got.Events, got.MeanMbps, got.Drops, want.Events, want.MeanMbps, want.Drops)
				}
				if h.depth != 0 {
					t.Errorf("%s trial %d %s: %d spans left open", cca, trial, mode.name, h.depth)
				}
				if spans := h.byKind()[kSimRun].Count; mode.on != (spans == 1) {
					t.Errorf("%s trial %d %s: %d root spans recorded", cca, trial, mode.name, spans)
				}
			}
		}
	}
}

// With the recording sinks attached the trial still is the one core runs:
// tracing observes, it never perturbs.
func TestRecomposedTrialWithRecordingMatchesCore(t *testing.T) {
	n := core.Network{BandwidthMbps: 20, RTT: 10 * sim.Millisecond, BufferBDP: 1, Duration: 2 * sim.Second, Trials: 1, Seed: 7}
	test := core.Spec("xquic", stacks.CUBIC)
	ref := core.Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	want, err := core.RunTrialE(test, ref, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := openRecording(t.TempDir(), "test", 0, 0, "cell", n.Seed)
	if err != nil {
		t.Fatal(err)
	}
	h := newHot(true)
	got, err := recomposeTrial(test, ref, n, 0, h, rec)
	if err != nil {
		t.Fatal(err)
	}
	qlog, csv, err := rec.close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != want.Events || got.MeanMbps != want.MeanMbps || got.Drops != want.Drops {
		t.Errorf("recorded trial: events %d mbps %v drops %d; core has events %d mbps %v drops %d",
			got.Events, got.MeanMbps, got.Drops, want.Events, want.MeanMbps, want.Drops)
	}
	if qlog == 0 || csv == 0 {
		t.Errorf("recording wrote %d qlog bytes and %d CSV bytes", qlog, csv)
	}
	kinds := h.byKind()
	if kinds[kTelemetry].Count == 0 || kinds[kTraceCSV].Count == 0 {
		t.Errorf("sink spans: %d telemetry, %d csv", kinds[kTelemetry].Count, kinds[kTraceCSV].Count)
	}
}

func TestRecomposedManyFlowTrialMatchesCore(t *testing.T) {
	spec := core.DefaultTrafficSpec()
	n := core.Network{BandwidthMbps: 100, RTT: 20 * sim.Millisecond, BufferBDP: 1, Duration: sim.Second, Trials: 1, Seed: 3}
	want, err := core.RunManyFlowTrial(spec, n, 0, core.Bounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := recomposeManyFlow(spec, n.WithDefaults(), 0, newHot(true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != want.Events || got.AggMbps != want.AggMbps || got.Drops != want.Drops || got.Flows != want.Flows {
		t.Errorf("many-flow: events %d mbps %v drops %d flows %d; core has events %d mbps %v drops %d flows %d",
			got.Events, got.AggMbps, got.Drops, got.Flows, want.Events, want.AggMbps, want.Drops, want.Flows)
	}
}

// Self times under one root sum to the root's duration: every instant of
// the traced trial belongs to exactly one layer span.
func TestSelfTimesSumToTheRoot(t *testing.T) {
	n := core.Network{BandwidthMbps: 20, RTT: 10 * sim.Millisecond, BufferBDP: 1, Duration: sim.Second, Trials: 1, Seed: 1}
	ref := core.Flow{Stack: stacks.Reference(), CCA: stacks.Reno}
	h := newHot(true)
	if _, err := recomposeTrial(core.Spec("quicgo", stacks.Reno), ref, n, 0, h, nil); err != nil {
		t.Fatal(err)
	}
	var self int64
	for _, a := range h.byKind() {
		self += a.SelfNs
	}
	if root := h.byKind()[kSimRun].TotalNs; self != root {
		t.Errorf("self times sum to %d ns, the root span lasted %d ns", self, root)
	}
}
