// Command quicbench regenerates the paper's tables and figures.
//
// Usage:
//
//	quicbench -list
//	quicbench -exp fig6                 # one experiment at quick scale
//	quicbench -exp all -scale full      # the whole evaluation, full fidelity
//	quicbench -exp fig9 -plots out/     # also write SVG plots
//	quicbench -exp tab3 -duration 60s -trials 3 -seed 7
//	quicbench chaos -stack quicgo -cca cubic -loss 0,0.001,0.01
//	quicbench sweep -stacks quicgo,lsquic -ccas cubic -checkpoint run.jsonl
//	quicbench sweep -checkpoint run.jsonl -resume   # continue after ^C
//	quicbench sweep -trace traces/ -progress -status status.jsonl
//	quicbench sweep -listen 127.0.0.1:9777 -min-workers 3 -checkpoint run.jsonl
//	quicbench worker -connect 127.0.0.1:9777     # one fleet member (run several)
//	quicbench trace -check traces/               # validate qlog JSONL files
//	quicbench trace -cwnd 1 traces/<cell>/test0.qlog.jsonl  # cwnd-over-time CSV
//
// Quick scale (30 s flows, 2 trials) gives the qualitative shapes in
// minutes; full scale (120 s, 5 trials) mirrors the paper's methodology
// and takes on the order of an hour for -exp all.
//
// The chaos subcommand sweeps one implementation's conformance across
// fault-injection levels (i.i.d. loss, burst loss, blackouts) and prints
// the degradation curve. It exits nonzero when a level produces degenerate
// data — e.g. a loss rate of 1 starves every trial — with the typed
// diagnostic from the pipeline instead of a panic.
//
// The sweep subcommand runs a supervised conformance sweep over a
// stack × CCA grid: a bounded worker pool with panic isolation, retry with
// deterministic backoff, per-trial virtual-clock timeouts (-trial-timeout),
// and a JSONL checkpoint journal (-checkpoint). SIGINT and SIGTERM drain
// gracefully (exit 130 and 143) and -resume continues from the journal,
// reproducing the uninterrupted results bit for bit. With -isolate each
// cell attempt runs in a crash-isolated child process (the hidden `_trial`
// mode): children heartbeat to the parent, a wall-clock reaper SIGKILLs
// wedged or overrunning ones (-stall-timeout, -wall-timeout), a soft
// memory ceiling (-mem-limit) contains allocation blowouts, and every
// child death is classified (timeout, OOM, signal, crash) and retried —
// a hard crash costs one attempt of one cell, never the sweep.
//
// With -listen the sweep becomes a distributed campaign: the coordinator
// shards cells across `quicbench worker` processes over TCP, workers
// heartbeat, a stalled or crashed worker's cells re-dispatch to healthy
// ones (-worker-timeout), and an empty fleet degrades to local execution.
// Checkpoint records flush in cell order, so the distributed journal —
// even across a coordinator kill plus -resume — is byte-identical to a
// single-process run's.
//
// Observability: -trace writes one qlog-style JSONL trace per trial
// (cwnd/ssthresh/pacing updates, CC state transitions, loss and PTO
// events; seed-stable and byte-identical between in-process and isolated
// runs), -progress renders a live status line to stderr, -status appends
// machine-readable JSONL snapshots, -pprof serves net/http/pprof, and
// SIGQUIT dumps goroutine/heap profiles without stopping the sweep. The
// trace subcommand validates (-check) and summarizes trace files.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	quicbench "repro"
)

// subcommands maps each first-argument word to its entry point, which
// takes the remaining arguments and returns the process exit code.
var subcommands = map[string]func([]string) int{
	// Hidden trial-child mode: the parent half lives in internal/isolate
	// and `quicbench sweep -isolate`. Not part of the CLI surface.
	"_trial":   func([]string) int { return quicbench.TrialChildMain() },
	"chaos":    chaosMain,
	"sweep":    sweepMain,
	"worker":   workerMain,
	"manyflow": manyflowMain,
	"trace":    traceMain,
}

func main() {
	os.Exit(dispatch(os.Args[1:]))
}

// dispatch routes a leading non-flag word to its subcommand and everything
// else to the experiment catalog. A word that names no subcommand is an
// error, not a request for the experiment list.
func dispatch(args []string) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return expMain(args)
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "quicbench: unknown subcommand %q\n", args[0])
		return 2
	}
	return sub(args[1:])
}

// expMain implements the experiment catalog (-list, -exp) and returns the
// process exit code.
func expMain(args []string) int {
	fs := flag.NewFlagSet("quicbench", flag.ExitOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		exp      = fs.String("exp", "", "experiment id (e.g. fig6, tab3) or 'all'")
		scale    = fs.String("scale", "quick", "quick or full")
		plots    = fs.String("plots", "", "directory for SVG plots (optional)")
		duration = fs.Duration("duration", 0, "override flow duration (e.g. 60s)")
		trials   = fs.Int("trials", 0, "override trial count")
		seed     = fs.Uint64("seed", 0, "override random seed")
	)
	fs.Parse(args)

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range quicbench.Experiments() {
			fmt.Printf("  %-6s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			fmt.Println("\nrun one with: quicbench -exp <id> [-scale full] [-plots dir]")
		}
		return 0
	}

	sc := quicbench.Quick
	if *scale == "full" {
		sc = quicbench.Full
	} else if *scale != "quick" {
		fmt.Fprintf(os.Stderr, "unknown -scale %q (want quick or full)\n", *scale)
		return 2
	}
	if *duration != 0 {
		sc.Duration = *duration
	}
	if *trials != 0 {
		sc.Trials = *trials
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	cfg := quicbench.ExpConfig{Out: os.Stdout, PlotDir: *plots, Scale: sc}

	run := func(e quicbench.Experiment) error {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Second))
		return nil
	}

	if *exp == "all" {
		for _, e := range quicbench.Experiments() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}
	e, ok := quicbench.LookupExperiment(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		return 2
	}
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// chaosMain implements the `quicbench chaos` subcommand and returns the
// process exit code.
func chaosMain(args []string) int {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		stack    = fs.String("stack", "quicgo", "stack under test")
		cca      = fs.String("cca", "cubic", "congestion control algorithm")
		bw       = fs.Float64("bw", 20, "bottleneck bandwidth (Mbps)")
		rtt      = fs.Duration("rtt", 10*time.Millisecond, "base RTT")
		buffer   = fs.Float64("buffer", 1, "droptail buffer (BDP multiples)")
		duration = fs.Duration("duration", 10*time.Second, "flow duration")
		trials   = fs.Int("trials", 2, "trials per level")
		seed     = fs.Uint64("seed", 1, "random seed")
		loss     = fs.String("loss", "", "comma-separated i.i.d. loss probabilities (e.g. 0,0.001,0.01); empty = default sweep")
		burst    = fs.Bool("burst", false, "add a Gilbert-Elliott burst-loss level (~1% mean loss)")
		blackout = fs.Duration("blackout", 0, "add a blackout level of this duration starting at 40% of the run")
	)
	fs.Parse(args)

	net := quicbench.Network{
		BandwidthMbps: *bw,
		RTT:           *rtt,
		BufferBDP:     *buffer,
		Duration:      *duration,
		Trials:        *trials,
		Seed:          *seed,
	}
	var levels []quicbench.ChaosLevel
	if *loss != "" {
		for _, tok := range strings.Split(*loss, ",") {
			p, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || p < 0 || p > 1 {
				fmt.Fprintf(os.Stderr, "chaos: bad -loss entry %q (want probability in [0,1])\n", tok)
				return 2
			}
			name := fmt.Sprintf("iid-%g%%", p*100)
			if p == 0 {
				name = "none"
			}
			levels = append(levels, quicbench.ChaosLevel{Name: name, LossProb: p})
		}
	}
	if *burst {
		levels = append(levels, quicbench.ChaosLevel{Name: "burst-1%", Burst: true})
	}
	if *blackout > 0 {
		levels = append(levels, quicbench.ChaosLevel{
			Name:             fmt.Sprintf("blackout-%v", *blackout),
			BlackoutStart:    *duration * 4 / 10,
			BlackoutDuration: *blackout,
		})
	}

	fmt.Printf("chaos sweep: %s %s at %.0fMbps/%v/%.1fBDP, %v x %d trials, seed %d\n",
		*stack, *cca, *bw, *rtt, *buffer, *duration, *trials, *seed)
	pts, err := quicbench.MeasureChaos(*stack, quicbench.CCA(*cca), net, levels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 2
	}
	fmt.Printf("%-14s %8s %8s %4s\n", "level", "conf", "conf-T", "k")
	degenerate := 0
	for _, pt := range pts {
		if pt.Err != nil {
			degenerate++
			fmt.Printf("%-14s degenerate: %v\n", pt.Level, pt.Err)
			continue
		}
		fmt.Printf("%-14s %8.2f %8.2f %4d\n", pt.Level, pt.Conformance, pt.ConformanceT, pt.K)
	}
	if degenerate > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d of %d levels produced degenerate data\n", degenerate, len(pts))
		return 1
	}
	return 0
}
