package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/stacks"
)

// quickNet returns a scaled-down network config for unit tests: the same
// topology as the paper's grid but shorter runs and fewer trials.
func quickNet() Network {
	return Network{
		BandwidthMbps: 20,
		RTT:           10 * sim.Millisecond,
		BufferBDP:     1,
		Duration:      30 * sim.Second,
		Trials:        2,
		Seed:          7,
	}
}

func TestNetworkDefaults(t *testing.T) {
	n := Network{}.withDefaults()
	if n.BandwidthMbps != 20 || n.RTT != 10*sim.Millisecond || n.BufferBDP != 1 ||
		n.Duration != 120*sim.Second || n.Trials != 5 {
		t.Fatalf("defaults = %+v", n)
	}
	if n.String() != "20Mbps/10ms/1.0BDP" {
		t.Fatalf("String = %q", n.String())
	}
}

func TestSpecPanicsOnUnknownStack(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Spec("nosuchstack", stacks.CUBIC)
}

// mustTrial runs one trial and fails the test on any trial error.
func mustTrial(t *testing.T, a, b Flow, n Network, trial int) *TrialResult {
	t.Helper()
	res, err := RunTrialE(a, b, n, trial)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunTrialBasics(t *testing.T) {
	n := quickNet()
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	res := mustTrial(t, a, b, n, 0)

	// Link should be well utilized by two CUBIC flows.
	total := res.MeanMbps[0] + res.MeanMbps[1]
	if total < 17 || total > 21 {
		t.Fatalf("aggregate throughput = %.1f Mbps, want ~19-20", total)
	}
	if res.Drops == 0 {
		t.Fatal("no bottleneck drops at 1 BDP under CUBIC")
	}
	if res.Losses[0] == 0 && res.Losses[1] == 0 {
		t.Fatal("no sender-observed losses")
	}
	if len(res.Traces[0].Deliveries) == 0 || len(res.Traces[0].RTTs) == 0 {
		t.Fatal("trace empty")
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	n := quickNet()
	n.Duration = 10 * sim.Second
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	r1 := mustTrial(t, a, b, n, 3)
	r2 := mustTrial(t, a, b, n, 3)
	if r1.MeanMbps != r2.MeanMbps || r1.Drops != r2.Drops {
		t.Fatalf("same seed+trial differ: %+v vs %+v", r1.MeanMbps, r2.MeanMbps)
	}
	r3 := mustTrial(t, a, b, n, 4)
	if r1.MeanMbps == r3.MeanMbps {
		t.Fatal("different trials produced identical results (no randomization)")
	}
}

func TestPointsOnSamplingGrid(t *testing.T) {
	n := quickNet()
	n.Duration = 20 * sim.Second
	res := mustTrial(t, Spec("quicgo", stacks.CUBIC), Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}, n, 0)
	pts := res.Points(0, n)
	// 16 s measured window / 100 ms windows = up to 160 samples.
	if len(pts) < 100 || len(pts) > 160 {
		t.Fatalf("samples = %d, want ~160", len(pts))
	}
	for _, p := range pts {
		if p.X < 9 || p.X > 40 {
			t.Fatalf("delay sample %.1f ms outside plausible range", p.X)
		}
		if p.Y < 0 || p.Y > 21 {
			t.Fatalf("throughput sample %.1f Mbps outside link capacity", p.Y)
		}
	}
}

func TestTestTrialsShape(t *testing.T) {
	n := quickNet()
	trials, err := TestTrials(Spec("quicgo", stacks.CUBIC), Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != n.Trials {
		t.Fatalf("trials = %d, want %d", len(trials), n.Trials)
	}
	for i, tr := range trials {
		if len(tr) == 0 {
			t.Fatalf("trial %d empty", i)
		}
	}
}

func TestConformantStackScoresHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance sweep; skipped with -short")
	}
	rep, err := Conformance(Spec("quicgo", stacks.CUBIC), quickNet())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conformance < 0.5 {
		t.Fatalf("quicgo CUBIC conformance = %.2f, want conformant (>= 0.5)", rep.Conformance)
	}
}

func TestMvfstBBRSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance sweep; skipped with -short")
	}
	// The paper's strongest result: mvfst BBR has ~0 conformance, high
	// Conformance-T, large positive Δ-throughput, ~0 Δ-delay (Table 3).
	rep, err := Conformance(Spec("mvfst", stacks.BBR), quickNet())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conformance > 0.2 {
		t.Fatalf("mvfst BBR conformance = %.2f, want ~0", rep.Conformance)
	}
	if rep.ConformanceT <= rep.Conformance+0.2 {
		t.Fatalf("mvfst BBR ConfT = %.2f (conf %.2f), want clearly higher", rep.ConformanceT, rep.Conformance)
	}
	if rep.DeltaThroughputMbps < 3 {
		t.Fatalf("mvfst BBR Δ-tput = %.1f, want clearly positive", rep.DeltaThroughputMbps)
	}
}

func TestNeqoCubicSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance sweep; skipped with -short")
	}
	// Table 3: conf ~0, Δ-tput ~ -6 Mbps.
	rep, err := Conformance(Spec("neqo", stacks.CUBIC), quickNet())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conformance > 0.4 {
		t.Fatalf("neqo CUBIC conformance = %.2f, want low", rep.Conformance)
	}
	if rep.DeltaThroughputMbps > -2 {
		t.Fatalf("neqo CUBIC Δ-tput = %.1f, want clearly negative", rep.DeltaThroughputMbps)
	}
}

func TestBandwidthShareIdenticalFlowsFair(t *testing.T) {
	n := quickNet()
	ref := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	sh, err := BandwidthShare(ref, ref, n)
	if err != nil {
		t.Fatal(err)
	}
	if sh.ShareA < 0.35 || sh.ShareA > 0.65 {
		t.Fatalf("identical flows share = %.2f, want ~0.5", sh.ShareA)
	}
}

func TestBandwidthShareChromiumAggressive(t *testing.T) {
	// §4.3: chromium CUBIC (2 emulated flows) is unfair to other CUBICs.
	n := quickNet()
	sh, err := BandwidthShare(Spec("chromium", stacks.CUBIC), Spec("quicgo", stacks.CUBIC), n)
	if err != nil {
		t.Fatal(err)
	}
	if sh.ShareA < 0.55 {
		t.Fatalf("chromium CUBIC share = %.2f, want > 0.55 (aggressive)", sh.ShareA)
	}
}

func TestEnvelopesNonEmpty(t *testing.T) {
	n := quickNet()
	ref := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	testTrials, err := TestTrials(Spec("quicgo", stacks.CUBIC), ref, n)
	if err != nil {
		t.Fatal(err)
	}
	refTrials, err := ReferenceTrials(ref, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range [][][]geom.Point{testTrials, refTrials} {
		env, err := pe.BuildE(trials, pe.Options{Seed: n.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Hulls) == 0 || env.Area() <= 0 {
			t.Fatal("empty envelope")
		}
	}
}

func TestWildModePerturbsRTT(t *testing.T) {
	n := quickNet()
	n.Duration = 10 * sim.Second
	n.Wild = true
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	r1 := mustTrial(t, a, b, n, 0)
	r2 := mustTrial(t, a, b, n, 1)
	if r1.MeanMbps == r2.MeanMbps {
		t.Fatal("wild trials identical")
	}
	// Throughput should still be sane.
	if r1.MeanMbps[0]+r1.MeanMbps[1] < 14 {
		t.Fatalf("wild aggregate = %.1f, too low", r1.MeanMbps[0]+r1.MeanMbps[1])
	}
}

func TestConformanceAgainstNoHyStartReference(t *testing.T) {
	// Table 4's last CUBIC row compares xquic CUBIC against a kernel
	// reference with HyStart disabled. At 60 s / 3 trials this reproduces
	// the paper's improvement (0.58 -> 0.73 vs the paper's 0.55 -> 0.72;
	// see EXPERIMENTS.md), but at this test's quick scale run-to-run noise
	// can exceed the effect, so the test only pins the pipeline: both
	// comparisons run and produce valid reports.
	if testing.Short() {
		t.Skip("long comparison")
	}
	n := quickNet()
	test := Spec("xquic", stacks.CUBIC)
	vsStock, err := Conformance(test, n)
	if err != nil {
		t.Fatal(err)
	}
	noHS := Flow{Stack: stacks.ReferenceNoHyStart(), CCA: stacks.CUBIC}
	testTrials, err := TestTrials(test, noHS, n)
	if err != nil {
		t.Fatal(err)
	}
	refTrials, err := ReferenceTrials(noHS, n)
	if err != nil {
		t.Fatal(err)
	}
	vsNoHS, err := pe.EvaluateE(testTrials, refTrials, pe.Options{Seed: n.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []struct {
		name string
		v    float64
	}{{"vs-stock", vsStock.Conformance}, {"vs-noHyStart", vsNoHS.Conformance}} {
		if rep.v < 0 || rep.v > 1 {
			t.Fatalf("%s conformance out of range: %v", rep.name, rep.v)
		}
	}
	if diff := vsNoHS.Conformance - vsStock.Conformance; diff < -0.45 {
		t.Fatalf("no-HyStart reference much worse (%+.2f); comparison machinery suspect", diff)
	}
}

func TestSeriesExtraction(t *testing.T) {
	n := quickNet()
	n.Duration = 10 * sim.Second
	res := mustTrial(t, Spec("quicgo", stacks.CUBIC), Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}, n, 0)
	series := res.Series(0, n)
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	nonZero := 0
	for _, sp := range series {
		if sp.Mbps > 0 {
			nonZero++
		}
	}
	if nonZero < len(series)/2 {
		t.Fatalf("only %d/%d windows carry traffic", nonZero, len(series))
	}
}
