package quicbench

// One benchmark per table and figure of the paper's evaluation. Each bench
// runs the corresponding experiment end to end (simulation + Performance
// Envelope construction + metrics) at a reduced scale so the full suite
// finishes in minutes; `cmd/quicbench -exp <id> -scale full` reproduces the
// paper's exact methodology. The regenerated rows/series go to io.Discard
// here — run the command to see them.

import (
	"io"
	"testing"
	"time"
)

// benchScale keeps benchmark iterations affordable: 15 s flows, 2 trials —
// the fewest that still exercise cross-trial hull intersection.
var benchScale = Scale{Duration: 15 * time.Second, Trials: 2, Seed: 1}

// runExperiment is the shared bench body.
func runExperiment(b *testing.B, id string, scale Scale) {
	b.Helper()
	e, ok := LookupExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := ExpConfig{Out: io.Discard, Scale: scale}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Inventory(b *testing.B)           { runExperiment(b, "tab1", benchScale) }
func BenchmarkFig1SingleHullVsClustered(b *testing.B) { runExperiment(b, "fig1", benchScale) }
func BenchmarkFig2BBRClusters(b *testing.B)           { runExperiment(b, "fig2", benchScale) }
func BenchmarkFig3CubicRenoClusters(b *testing.B)     { runExperiment(b, "fig3", benchScale) }
func BenchmarkFig4KSelection(b *testing.B)            { runExperiment(b, "fig4", benchScale) }
func BenchmarkFig5CwndGainSweep(b *testing.B)         { runExperiment(b, "fig5", benchScale) }
func BenchmarkFig6ConformanceHeatmap(b *testing.B)    { runExperiment(b, "fig6", benchScale) }
func BenchmarkFig7LowConformancePEs(b *testing.B)     { runExperiment(b, "fig7", benchScale) }
func BenchmarkFig8XquicRenoBuffers(b *testing.B)      { runExperiment(b, "fig8", benchScale) }
func BenchmarkFig9MvfstBBR(b *testing.B)              { runExperiment(b, "fig9", benchScale) }
func BenchmarkFig10XquicBBR(b *testing.B)             { runExperiment(b, "fig10", benchScale) }
func BenchmarkFig11Wild(b *testing.B)                 { runExperiment(b, "fig11", benchScale) }
func BenchmarkFig12IntraCCAFairness(b *testing.B)     { runExperiment(b, "fig12", benchScale) }
func BenchmarkFig13InterCCAFairness(b *testing.B)     { runExperiment(b, "fig13", benchScale) }
func BenchmarkFig14XquicBBRFix(b *testing.B)          { runExperiment(b, "fig14", benchScale) }
func BenchmarkFig15QuicheCubicFix(b *testing.B)       { runExperiment(b, "fig15", benchScale) }
func BenchmarkTable3Summary(b *testing.B)             { runExperiment(b, "tab3", benchScale) }
func BenchmarkTable4Fixes(b *testing.B)               { runExperiment(b, "tab4", benchScale) }

// BenchmarkConformancePipeline measures the library's primary operation in
// isolation: one full conformance measurement (test + reference trials,
// clustering, hulls, translation search).
func BenchmarkConformancePipeline(b *testing.B) {
	net := Network{
		BandwidthMbps: 20,
		RTT:           10 * time.Millisecond,
		BufferBDP:     1,
		Duration:      10 * time.Second,
		Trials:        2,
		Seed:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureConformance("quicgo", CUBIC, net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialSimulation measures the raw simulation rate: one 10-second
// two-flow trial at 20 Mbps.
func BenchmarkTrialSimulation(b *testing.B) {
	net := Network{
		BandwidthMbps: 20,
		RTT:           10 * time.Millisecond,
		BufferBDP:     1,
		Duration:      10 * time.Second,
		Trials:        1,
		Seed:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureFairness(
			Impl{Stack: "quicgo", CCA: CUBIC},
			Impl{Stack: "kernel", CCA: CUBIC}, net); err != nil {
			b.Fatal(err)
		}
	}
}
