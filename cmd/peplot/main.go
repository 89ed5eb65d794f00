// Command peplot measures one implementation's Performance Envelope
// against the kernel reference and writes an SVG plot plus the metric
// summary — the single-implementation workflow a stack developer would
// use to check conformance.
//
// Usage:
//
//	peplot -stack quiche -cca cubic -o quiche_cubic.svg
//	peplot -stack mvfst -cca bbr -buffer 3 -rtt 50ms -o mvfst.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	quicbench "repro"
	"repro/internal/geom"
	"repro/internal/report"
)

func main() {
	var (
		stack    = flag.String("stack", "quiche", "stack name (see quicbench -exp tab1)")
		cca      = flag.String("cca", "cubic", "cubic, bbr, or reno")
		bw       = flag.Float64("bw", 20, "bottleneck bandwidth (Mbps)")
		rtt      = flag.Duration("rtt", 10*time.Millisecond, "base RTT")
		buffer   = flag.Float64("buffer", 1, "buffer size (BDP multiples)")
		duration = flag.Duration("duration", 30*time.Second, "flow duration")
		trials   = flag.Int("trials", 3, "trials")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("o", "pe.svg", "output SVG path")
	)
	flag.Parse()

	net := quicbench.Network{
		BandwidthMbps: *bw, RTT: *rtt, BufferBDP: *buffer,
		Duration: *duration, Trials: *trials, Seed: *seed,
	}
	rep, err := quicbench.MeasureConformance(*stack, quicbench.CCA(*cca), net)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s %s: Conformance=%.2f (old %.2f)  Conformance-T=%.2f  Δ-tput=%+.1f Mbps  Δ-delay=%+.1f ms  k=%d\n",
		*stack, *cca, rep.Conformance, rep.ConformanceOld, rep.ConformanceT,
		rep.DeltaThroughputMbps, rep.DeltaDelayMs, rep.K)
	if note := quicbench.DeviationNote(*stack, quicbench.CCA(*cca)); note != "" {
		fmt.Printf("modelled deviation: %s\n", note)
	}

	test, ref, err := quicbench.BuildEnvelopes(*stack, quicbench.CCA(*cca), net)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plot := &report.SVGPlot{Title: fmt.Sprintf("%s %s vs kernel (Conf %.2f)", *stack, *cca, rep.Conformance)}
	plot.AddSeries("reference", toGeom(ref.Points), toHulls(ref.Hulls))
	plot.AddSeries(*stack, toGeom(test.Points), toHulls(test.Hulls))

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	err = plot.Render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("plot written: %s\n", *out)
}

func toGeom(pts []quicbench.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p.DelayMs, Y: p.Mbps}
	}
	return out
}

func toHulls(hulls [][]quicbench.Point) []geom.Polygon {
	out := make([]geom.Polygon, len(hulls))
	for i, h := range hulls {
		out[i] = geom.Polygon(toGeom(h))
	}
	return out
}
