package quicbench

// Ablation benchmarks for the methodology's design choices (DESIGN.md §5):
// each reports the metric value under the design decision and under its
// ablated alternative via b.ReportMetric, so `go test -bench=Ablation`
// doubles as a sensitivity analysis. A run whose trials or envelopes are
// undefined fails the benchmark rather than reporting a zero.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pe"
	"repro/internal/stacks"
)

// mustTrials runs a test trial set and its reference set and fails the
// benchmark if either errors.
func mustTrials(b *testing.B, test, ref core.Flow, n core.Network) (testTrials, refTrials [][]geom.Point) {
	b.Helper()
	testTrials, err := core.TestTrials(test, ref, n)
	if err != nil {
		b.Fatal(err)
	}
	refTrials, err = core.ReferenceTrials(ref, n)
	if err != nil {
		b.Fatal(err)
	}
	return testTrials, refTrials
}

// mustBuild builds an envelope and fails the benchmark if it is degenerate.
func mustBuild(b *testing.B, trials [][]geom.Point, seed uint64) *pe.Envelope {
	b.Helper()
	env, err := pe.BuildE(trials, pe.Options{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func ablationNet() core.Network {
	return core.Network{
		BandwidthMbps: 20,
		RTT:           10_000_000, // 10 ms in sim.Time units
		BufferBDP:     1,
		Duration:      simDur(15 * time.Second),
		Trials:        2,
		Seed:          1,
	}
}

// BenchmarkAblationClusteredVsSingleHull quantifies the paper's Fig. 1
// claim: the single-hull PE overestimates conformance for implementations
// whose clouds have structure.
func BenchmarkAblationClusteredVsSingleHull(b *testing.B) {
	n := ablationNet()
	for i := 0; i < b.N; i++ {
		testTrials, refTrials := mustTrials(b, core.Spec("quiche", stacks.CUBIC), kernelFlow(stacks.CUBIC), n)
		clustered := pe.Conformance(mustBuild(b, testTrials, 1), mustBuild(b, refTrials, 2))
		single := pe.Conformance(pe.BuildOld(testTrials), pe.BuildOld(refTrials))
		b.ReportMetric(clustered, "conf-clustered")
		b.ReportMetric(single, "conf-singlehull")
	}
}

// BenchmarkAblationCrossTrialIntersection compares the enhanced outlier
// handling (intersection of per-trial hulls) against pooling all trials
// into one (no intersection), measuring how much envelope area the
// intersection trims.
func BenchmarkAblationCrossTrialIntersection(b *testing.B) {
	n := ablationNet()
	for i := 0; i < b.N; i++ {
		trials, err := core.ReferenceTrials(kernelFlow(stacks.CUBIC), n)
		if err != nil {
			b.Fatal(err)
		}
		intersected := mustBuild(b, trials, 1)
		all := append([]geom.Point(nil), trials[0]...)
		for _, t := range trials[1:] {
			all = append(all, t...)
		}
		pooled := mustBuild(b, [][]geom.Point{all}, 1)
		b.ReportMetric(intersected.Area(), "area-intersected")
		b.ReportMetric(pooled.Area(), "area-pooled")
	}
}

// BenchmarkAblationHyStart measures the effect of HyStart on kernel CUBIC's
// own envelope (slow-start exit behaviour), one of the §5 mechanisms.
func BenchmarkAblationHyStart(b *testing.B) {
	n := ablationNet()
	for i := 0; i < b.N; i++ {
		ref := kernelFlow(stacks.CUBIC)
		noHS := core.Flow{Stack: stacks.ReferenceNoHyStart(), CCA: stacks.CUBIC}
		testTrials, err := core.TestTrials(noHS, ref, n)
		if err != nil {
			b.Fatal(err)
		}
		refTrials, err := core.ReferenceTrials(ref, n)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := pe.EvaluateE(testTrials, refTrials, pe.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Conformance, "conf-noHyStart-vs-stock")
	}
}

// BenchmarkAblationPacing measures how disabling pacing changes a QUIC
// CUBIC's conformance (QUIC stacks pace by default; the kernel reference
// does not).
func BenchmarkAblationPacing(b *testing.B) {
	n := ablationNet()
	for i := 0; i < b.N; i++ {
		paced, err := evaluate(refCache{}, core.Spec("quicgo", stacks.CUBIC), kernelFlow(stacks.CUBIC), n)
		if err != nil {
			b.Fatal(err)
		}
		unpacedStack, err := customStack("unpaced", CUBIC, Tunables{NoPacing: true})
		if err != nil {
			b.Fatal(err)
		}
		unpaced, err := evaluate(refCache{}, core.Flow{Stack: unpacedStack, CCA: stacks.CUBIC}, kernelFlow(stacks.CUBIC), n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(paced.Conformance, "conf-paced")
		b.ReportMetric(unpaced.Conformance, "conf-unpaced")
	}
}

// BenchmarkAblationTranslationSeeding compares the Conformance-T search
// seeded at the centroid difference against an unseeded search from the
// identity, validating the §3.3 search design.
func BenchmarkAblationTranslationSeeding(b *testing.B) {
	n := ablationNet()
	for i := 0; i < b.N; i++ {
		testTrials, refTrials := mustTrials(b, core.Spec("mvfst", stacks.BBR), kernelFlow(stacks.BBR), n)
		test := mustBuild(b, testTrials, 1)
		ref := mustBuild(b, refTrials, 2)
		res := pe.ConformanceT(test, ref)
		plain := pe.Conformance(test, ref)
		b.ReportMetric(res.ConformanceT, "confT")
		b.ReportMetric(plain, "conf")
		b.ReportMetric(res.DeltaThroughputMbps, "delta-tput")
	}
}
