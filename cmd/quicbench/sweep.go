package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	quicbench "repro"
	"repro/internal/telemetry"
)

// sweepMain implements the `quicbench sweep` subcommand: a supervised,
// checkpointed conformance sweep over a stack × CCA × network grid. It
// returns the process exit code: 0 on success, 1 when cells exhausted
// their retry budget, 2 on usage errors, and 128+signal when interrupted —
// 130 for SIGINT, 143 for SIGTERM (a container runtime's stop signal).
// Either way the journal stays valid; re-run with -resume to continue.
func sweepMain(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		stackList   = fs.String("stacks", "", "comma-separated stacks (empty = all 11 QUIC stacks)")
		ccaList     = fs.String("ccas", "", "comma-separated CCAs (empty = cubic,bbr,reno)")
		bw          = fs.Float64("bw", 20, "bottleneck bandwidth (Mbps)")
		rtt         = fs.Duration("rtt", 10*time.Millisecond, "base RTT")
		buffer      = fs.Float64("buffer", 1, "droptail buffer (BDP multiples)")
		duration    = fs.Duration("duration", 10*time.Second, "flow duration")
		trials      = fs.Int("trials", 2, "trials per cell")
		seed        = fs.Uint64("seed", 1, "random seed")
		workers     = fs.Int("workers", 1, "concurrent cells")
		retries     = fs.Int("retries", 3, "attempt budget per cell")
		trialTO     = fs.Duration("trial-timeout", 0, "virtual-clock deadline per trial (0 = none)")
		checkpoint  = fs.String("checkpoint", "", "JSONL journal path (empty = no checkpointing)")
		resume      = fs.Bool("resume", false, "replay the checkpoint journal and run only missing/failed cells")
		isolated    = fs.Bool("isolate", false, "run each cell attempt in a crash-isolated child process")
		memLimit    = fs.Int("mem-limit", 0, "soft heap ceiling per isolated child (MiB, 0 = none)")
		stallTO     = fs.Duration("stall-timeout", 10*time.Second, "SIGKILL an isolated child silent for this long")
		wallTO      = fs.Duration("wall-timeout", 0, "wall-clock deadline per isolated child attempt (0 = none)")
		abortAfter  = fs.Int("abort-after", 0, "testing aid: cancel the sweep after N completed cells")
		quiet       = fs.Bool("q", false, "suppress per-cell progress lines")
		traceDir    = fs.String("trace", "", "write per-trial qlog JSONL traces under this directory")
		tracePkts   = fs.Bool("trace-packets", false, "with -trace, also stream per-packet bottleneck CSVs")
		progress    = fs.Bool("progress", false, "live progress line on stderr (cells done/total, ETA, workers, children)")
		statusPath  = fs.String("status", "", "append machine-readable JSONL status snapshots to this file")
		statusIntv  = fs.Duration("status-interval", time.Second, "progress/status snapshot period")
		obsAddr     = fs.String("obs-addr", "", "serve the observability plane (/metrics, /statusz, /healthz, /debug/pprof) on this address (e.g. 127.0.0.1:0)")
		obsWait     = fs.Duration("obs-wait", 0, "with -obs-addr, keep the endpoints up this long after the sweep completes for a final scrape")
		verbose     = fs.Bool("v", false, "log retries and backoff decisions to stderr")
		listenAddr  = fs.String("listen", "", "coordinate a distributed sweep: shard cells across `quicbench worker` processes connected to this TCP address (e.g. 127.0.0.1:0)")
		minWorkers  = fs.Int("min-workers", 0, "with -listen, wait for this many workers before dispatching")
		minWait     = fs.Duration("min-workers-timeout", 30*time.Second, "bound the -min-workers wait (proceed with fewer on timeout)")
		workerTO    = fs.Duration("worker-timeout", 10*time.Second, "with -listen, reap a worker silent for this long and re-dispatch its cells")
		workersFile = fs.String("workers-file", "", "with -listen, admit only workers named in this file (one host:port or name per line, # comments)")
		authToken   = fs.String("auth-token", "", "with -listen, require workers to prove this shared secret in their handshake")
		manyflow    = fs.String("manyflow", "", "run many-flow traffic cells instead of the two-flow grid: a traffic-spec JSON file, or 'default' for the built-in mix")
	)
	// Parse errors return the exit codes flag.ExitOnError would use (0 for
	// -h, 2 for a bad or undefined flag) instead of exiting, so dispatch
	// can be tested in-process.
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "sweep: -resume requires -checkpoint")
		return 2
	}
	if *listenAddr == "" && *minWorkers > 0 {
		fmt.Fprintln(os.Stderr, "sweep: -min-workers requires -listen")
		return 2
	}
	if *listenAddr == "" && (*workersFile != "" || *authToken != "") {
		fmt.Fprintln(os.Stderr, "sweep: -workers-file and -auth-token require -listen")
		return 2
	}
	if *tracePkts && *traceDir == "" {
		fmt.Fprintln(os.Stderr, "sweep: -trace-packets requires -trace")
		return 2
	}
	if *obsWait != 0 && *obsAddr == "" {
		fmt.Fprintln(os.Stderr, "sweep: -obs-wait requires -obs-addr")
		return 2
	}
	// SIGQUIT (^\) dumps goroutine/heap profiles instead of killing the
	// sweep — the standing diagnostic for wedged soaks.
	defer installSIGQUIT()()

	// One leveled logger owns every "sweep: " line; -v raises the
	// threshold to debug (retry/backoff decisions). Info output is
	// byte-identical to the historical fmt.Fprintf lines.
	logger := telemetry.NewLogger(os.Stderr, "sweep: ", *verbose)

	opts := quicbench.SweepOptions{
		// Always wired: supervision warnings (a resumed journal truncated
		// to its verified prefix, say) must reach the operator on a plain
		// sweep too, not only when a fabric or obs flag happens to be set.
		Logf:                logger.Infof,
		Workers:             *workers,
		Retries:             *retries,
		TrialTimeout:        *trialTO,
		Seed:                *seed,
		Checkpoint:          *checkpoint,
		Resume:              *resume,
		Isolate:             *isolated,
		IsolateMemLimitMB:   *memLimit,
		IsolateStallTimeout: *stallTO,
		IsolateWallTimeout:  *wallTO,
		TraceDir:            *traceDir,
		TracePackets:        *tracePkts,
		StatusPath:          *statusPath,
		StatusInterval:      *statusIntv,
		Networks: []quicbench.Network{{
			BandwidthMbps: *bw,
			RTT:           *rtt,
			BufferBDP:     *buffer,
			Duration:      *duration,
			Trials:        *trials,
			Seed:          *seed,
		}},
	}
	if *manyflow != "" {
		spec, serr := readTrafficSpec(*manyflow)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "sweep:", serr)
			return 2
		}
		opts.TrafficSpec = spec
	}
	if *stackList != "" {
		opts.Stacks = splitList(*stackList)
	}
	if *ccaList != "" {
		for _, c := range splitList(*ccaList) {
			opts.CCAs = append(opts.CCAs, quicbench.CCA(c))
		}
	}

	if *progress {
		opts.ProgressOut = os.Stderr
	}
	if *listenAddr != "" {
		opts.Listen = *listenAddr
		opts.MinWorkers = *minWorkers
		opts.MinWorkersTimeout = *minWait
		opts.WorkerHeartbeatTimeout = *workerTO
		opts.AuthToken = *authToken
		if *workersFile != "" {
			allowed, ferr := readWorkersFile(*workersFile)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "sweep:", ferr)
				return 2
			}
			opts.WorkerAllowlist = allowed
			// An explicit roster doubles as the default fleet size to wait
			// for before dispatching.
			if opts.MinWorkers == 0 {
				opts.MinWorkers = len(allowed)
			}
		}
		// The bound address line is load-bearing: with -listen 127.0.0.1:0
		// it is how workers (and the dist-smoke harness) learn the port.
		opts.OnListen = func(addr string) {
			logger.Infof("coordinator listening on %s", addr)
		}
	}
	if *obsAddr != "" {
		opts.ObsAddr = *obsAddr
		opts.ObsWait = *obsWait
		// Load-bearing like the coordinator line: with -obs-addr
		// 127.0.0.1:0 this is how scrapers (and the obs-smoke harness)
		// learn the port.
		opts.OnObsListen = func(addr string) {
			logger.Infof("obs listening on %s", addr)
		}
	}
	if *isolated {
		opts.OnFallback = func(cell string, err error) {
			logger.Infof("isolation fallback (in-process) for %s: %v", cell, err)
		}
	}
	// Always registered; the logger's level threshold decides whether the
	// line renders, so -v is a pure verbosity switch.
	opts.OnRetry = func(cell string, attempt int, err error, backoff time.Duration) {
		logger.Debugf("attempt %d for %s failed (%v); retrying in %v",
			attempt, cell, err, backoff.Round(time.Millisecond))
	}

	// SIGINT and SIGTERM cancel the context: in-flight cells abort at the
	// next watchdog tick (isolated children are killed), pending cells
	// record "skipped", and the journal is flushed record-by-record, so a
	// container stop or a second ^C loses nothing. The signal is recorded
	// to pick the conventional exit code (130 vs. 143).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var gotSig atomic.Value
	go func() {
		if s, ok := <-sigCh; ok {
			gotSig.Store(s)
			cancel()
		}
	}()

	// The live -progress line owns stderr (it rewrites itself with \r), so
	// per-cell lines are suppressed alongside it unless -q was overridden.
	showCells := !*quiet && !*progress
	var done atomic.Int64
	opts.Progress = func(r quicbench.SweepCellResult) {
		n := done.Add(1)
		if showCells {
			fmt.Fprintf(os.Stderr, "[%3d] %-4s %s\n", n, r.Outcome, r.Cell)
		}
		if *abortAfter > 0 && n >= int64(*abortAfter) {
			cancel()
		}
	}

	sum, err := quicbench.RunSweep(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 2
	}
	if err := quicbench.RenderSweep(os.Stdout, sum); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 2
	}
	switch {
	case sum.Interrupted:
		if s, _ := gotSig.Load().(os.Signal); s == syscall.SIGTERM {
			return 143 // 128 + SIGTERM, the containerized-stop convention
		}
		return 130 // SIGINT, or a programmatic cancel (-abort-after)
	case sum.Failed() > 0:
		return 1
	}
	return 0
}

// readWorkersFile parses a fleet roster: one worker name or host:port per
// line, blank lines and #-comments ignored. An entry may carry a trailing
// comment after whitespace.
func readWorkersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-workers-file: %w", err)
	}
	var out []string
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.ContainsAny(line, " \t") {
			return nil, fmt.Errorf("-workers-file: %s:%d: one worker per line, got %q", path, i+1, line)
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers-file: %s lists no workers", path)
	}
	return out, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
