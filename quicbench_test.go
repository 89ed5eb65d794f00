package quicbench

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/pe"
)

// testNet is a light configuration for API tests.
func testNet() Network {
	return Network{
		BandwidthMbps: 20,
		RTT:           10 * time.Millisecond,
		BufferBDP:     1,
		Duration:      15 * time.Second,
		Trials:        2,
		Seed:          3,
	}
}

func TestStacksList(t *testing.T) {
	names := Stacks()
	if len(names) != 12 {
		t.Fatalf("stacks = %d, want 12", len(names))
	}
	if names[0] != "kernel" {
		t.Fatalf("first stack = %s, want kernel", names[0])
	}
}

func TestImplementationsCount(t *testing.T) {
	if got := len(Implementations()); got != 22 {
		t.Fatalf("implementations = %d, want 22", got)
	}
	if got := len(ImplementationsOf(CUBIC)); got != 11 {
		t.Fatalf("CUBIC implementations = %d, want 11", got)
	}
}

func TestImplString(t *testing.T) {
	im := Impl{Stack: "quiche", CCA: CUBIC}
	if im.String() != "quiche cubic" {
		t.Fatalf("String = %q", im.String())
	}
}

func TestMeasureConformanceValidation(t *testing.T) {
	if _, err := MeasureConformance("nosuch", CUBIC, testNet()); err == nil {
		t.Fatal("unknown stack accepted")
	}
	if _, err := MeasureConformance("msquic", BBR, testNet()); err == nil {
		t.Fatal("msquic BBR should be rejected (Table 1)")
	}
}

func TestMeasureConformanceRuns(t *testing.T) {
	rep, err := MeasureConformance("quicgo", CUBIC, testNet())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conformance < 0 || rep.Conformance > 1 {
		t.Fatalf("conformance out of range: %v", rep.Conformance)
	}
	if rep.ConformanceT < rep.Conformance {
		t.Fatalf("ConfT %v < Conf %v", rep.ConformanceT, rep.Conformance)
	}
	if rep.K < 1 {
		t.Fatalf("K = %d", rep.K)
	}
}

// Undefined is not zero: at 15 s x 2 trials the kernel CUBIC reference in
// a 5 BDP buffer has no envelope with positive area, so msquic CUBIC's
// conformance is undefined and MeasureConformance says why instead of
// returning a zero report.
func TestMeasureConformanceUndefinedIsError(t *testing.T) {
	net := testNet()
	net.BufferBDP = 5
	net.Seed = 1
	rep, err := MeasureConformance("msquic", CUBIC, net)
	if !errors.Is(err, pe.ErrDegenerateEnvelope) {
		t.Fatalf("err = %v, want pe.ErrDegenerateEnvelope", err)
	}
	if rep != (Report{}) {
		t.Fatalf("undefined conformance returned a report: %+v", rep)
	}
}

func TestMeasureFairnessRuns(t *testing.T) {
	sh, err := MeasureFairness(
		Impl{Stack: "quicgo", CCA: CUBIC},
		Impl{Stack: "kernel", CCA: CUBIC},
		testNet())
	if err != nil {
		t.Fatal(err)
	}
	if sh.ShareA <= 0 || sh.ShareA >= 1 {
		t.Fatalf("share = %v", sh.ShareA)
	}
	if sh.MeanMbps[0] <= 0 || sh.MeanMbps[1] <= 0 {
		t.Fatalf("throughputs = %v", sh.MeanMbps)
	}
}

func TestBuildEnvelopesRuns(t *testing.T) {
	test, ref, err := BuildEnvelopes("quicgo", CUBIC, testNet())
	if err != nil {
		t.Fatal(err)
	}
	if len(test.Hulls) == 0 || len(ref.Hulls) == 0 {
		t.Fatal("empty envelopes")
	}
	if len(test.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range test.Points {
		if p.Mbps < 0 || p.Mbps > 25 || p.DelayMs < 5 || p.DelayMs > 60 {
			t.Fatalf("implausible sample %+v", p)
		}
	}
}

func TestFixedVariants(t *testing.T) {
	if _, ok, _ := Fixed("xquic", Reno, testNet()); ok {
		t.Fatal("xquic Reno has no fix in the paper")
	}
	rep, ok, err := Fixed("mvfst", BBR, testNet())
	if err != nil || !ok {
		t.Fatalf("mvfst BBR fix missing: %v %v", ok, err)
	}
	if rep.Conformance < 0 || rep.Conformance > 1 {
		t.Fatalf("fixed conformance out of range: %v", rep.Conformance)
	}
}

func TestDeviationNotes(t *testing.T) {
	if DeviationNote("quiche", CUBIC) == "" {
		t.Fatal("quiche CUBIC should document a deviation")
	}
	if DeviationNote("quicgo", CUBIC) != "" {
		t.Fatal("quicgo CUBIC should be standard")
	}
	if DeviationNote("nosuch", CUBIC) != "" {
		t.Fatal("unknown stack should return empty note")
	}
}

func TestMeasureCustomKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("two full conformance sweeps; skipped with -short")
	}
	net := testNet()
	// A deliberately mis-tuned BBR must score worse than a default one.
	std, err := MeasureCustom("std", BBR, Tunables{}, net)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := MeasureCustom("hot", BBR, Tunables{PacingRateScale: 1.4}, net)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Conformance >= std.Conformance {
		t.Fatalf("mis-tuned BBR (%.2f) not worse than default (%.2f)",
			hot.Conformance, std.Conformance)
	}
	if hot.DeltaThroughputMbps <= std.DeltaThroughputMbps {
		t.Fatalf("overdriven pacing should raise Δ-tput: %v vs %v",
			hot.DeltaThroughputMbps, std.DeltaThroughputMbps)
	}
}

func TestMeasureCustomFairness(t *testing.T) {
	sh, err := MeasureCustomFairness("mycubic", CUBIC, Tunables{EmulatedConnections: 2},
		Impl{Stack: "kernel", CCA: CUBIC}, testNet())
	if err != nil {
		t.Fatal(err)
	}
	if sh.ShareA < 0.5 {
		t.Fatalf("2-connection CUBIC share = %.2f, want aggressive (> 0.5)", sh.ShareA)
	}
}

func TestProfileLookup(t *testing.T) {
	p, ok := Profile("kernel")
	if !ok || p.MSS != 1448 {
		t.Fatalf("kernel profile = %+v ok=%v", p, ok)
	}
	if _, ok := Profile("nosuch"); ok {
		t.Fatal("unknown profile found")
	}
}

func TestExperimentCatalog(t *testing.T) {
	exps := Experiments()
	if len(exps) != 22 {
		t.Fatalf("experiments = %d, want 22 (15 figures + tables 1-4 + 3 extensions)", len(exps))
	}
	if got := len(Extensions()); got != 3 {
		t.Fatalf("extensions = %d, want 3", got)
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"fig1", "fig6", "fig13", "tab3", "tab4"} {
		if _, ok := LookupExperiment(id); !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if _, ok := LookupExperiment("fig99"); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestRunTab1Experiment(t *testing.T) {
	e, _ := LookupExperiment("tab1")
	var buf bytes.Buffer
	if err := e.Run(ExpConfig{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kernel", "quiche", "xquic", "Cloudflare", "RFC 8312bis"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tab1 output missing %q", want)
		}
	}
}

func TestRunFig4Experiment(t *testing.T) {
	e, _ := LookupExperiment("fig4")
	var buf bytes.Buffer
	cfg := ExpConfig{Out: &buf, Scale: Scale{Duration: 15 * time.Second, Trials: 2, Seed: 1}}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IOU R(k)") {
		t.Fatalf("fig4 output: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "chosen k") {
		t.Fatal("fig4 missing chosen k")
	}
}

func TestRunFig5SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	e, _ := LookupExperiment("fig5")
	var buf bytes.Buffer
	cfg := ExpConfig{Out: &buf, Scale: Scale{Duration: 15 * time.Second, Trials: 2, Seed: 1}}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cwnd_gain") {
		t.Fatal("fig5 missing table")
	}
}

func TestPlotsWritten(t *testing.T) {
	e, _ := LookupExperiment("fig3")
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := ExpConfig{Out: &buf, PlotDir: dir, Scale: Scale{Duration: 15 * time.Second, Trials: 2, Seed: 1}}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "plot written") {
		t.Fatal("no plot reported")
	}
}

func TestSelectCCAOrdersByFit(t *testing.T) {
	net := testNet()
	net.BufferBDP = 3
	scores, err := SelectCCA([]Impl{
		{Stack: "kernel", CCA: BBR},
		{Stack: "kernel", CCA: CUBIC},
	}, DesiredRegion{MaxDelayMs: 18, MinMbps: 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[0].Score < scores[1].Score {
		t.Fatal("scores not sorted descending")
	}
	// In a deep buffer, the low-delay region should favor BBR over the
	// buffer-filling CUBIC.
	if scores[0].Impl.CCA != BBR {
		t.Fatalf("low-delay region picked %s over BBR (scores %v)", scores[0].Impl, scores)
	}
	if _, err := SelectCCA([]Impl{{Stack: "nosuch", CCA: CUBIC}}, DesiredRegion{}, net); err == nil {
		t.Fatal("unknown candidate accepted")
	}
}
