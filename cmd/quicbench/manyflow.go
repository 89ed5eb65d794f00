package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	quicbench "repro"
)

// readTrafficSpec resolves a -manyflow / -spec argument: the literal
// "default" selects the built-in mix, anything else is read as a JSON
// traffic-spec file. Validation happens downstream in the sweep lowering,
// so a malformed file gets the parser's typed diagnostic.
func readTrafficSpec(arg string) ([]byte, error) {
	if arg == "default" {
		return quicbench.DefaultTrafficSpec(), nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("traffic spec: %w", err)
	}
	return data, nil
}

// manyflowMain implements `quicbench manyflow`: a one-shot many-flow
// trial — the spec's cohort mix (thousands of concurrent flows with
// Poisson arrivals and heavy-tailed sizes) churning through one bottleneck
// — evaluated through the same supervised cell pipeline the sweep uses.
// Exit codes follow sweepMain: 0 ok, 1 cell failed, 2 usage.
func manyflowMain(args []string) int {
	fs := flag.NewFlagSet("manyflow", flag.ContinueOnError)
	var (
		specArg  = fs.String("spec", "default", "traffic-spec JSON file, or 'default' for the built-in mix")
		printDef = fs.Bool("print-spec", false, "print the built-in traffic spec JSON and exit (a template for custom specs)")
		bw       = fs.Float64("bw", 1000, "bottleneck bandwidth (Mbps)")
		rtt      = fs.Duration("rtt", 20*time.Millisecond, "base RTT")
		buffer   = fs.Float64("buffer", 1, "droptail buffer (BDP multiples)")
		duration = fs.Duration("duration", 4*time.Second, "trial duration (virtual time)")
		trials   = fs.Int("trials", 2, "trials (independent seeded runs)")
		seed     = fs.Uint64("seed", 1, "random seed")
		traceDir = fs.String("trace", "", "write per-trial qlog JSONL traces under this directory")
		jsonOut  = fs.Bool("json", false, "emit the cell report as JSON instead of tables")
	)
	// As in sweep: 0 for -h, 2 for a bad or undefined flag.
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *printDef {
		os.Stdout.Write(quicbench.DefaultTrafficSpec())
		return 0
	}
	spec, err := readTrafficSpec(*specArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "manyflow:", err)
		return 2
	}

	opts := quicbench.SweepOptions{
		TrafficSpec: spec,
		TraceDir:    *traceDir,
		Seed:        *seed,
		Networks: []quicbench.Network{{
			BandwidthMbps: *bw,
			RTT:           *rtt,
			BufferBDP:     *buffer,
			Duration:      *duration,
			Trials:        *trials,
			Seed:          *seed,
		}},
	}
	sum, err := quicbench.RunSweep(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "manyflow:", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum.Cells); err != nil {
			fmt.Fprintln(os.Stderr, "manyflow:", err)
			return 2
		}
	} else if err := quicbench.RenderSweep(os.Stdout, sum); err != nil {
		fmt.Fprintln(os.Stderr, "manyflow:", err)
		return 2
	}
	if sum.Failed() > 0 || sum.Skipped() > 0 {
		return 1
	}
	return 0
}
