package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	quicbench "repro"
	"repro/internal/telemetry"
)

// workerMain implements the `quicbench worker` subcommand: the execution
// half of a distributed sweep. It connects to a coordinator started with
// `quicbench sweep -listen`, executes the cells it is assigned, and
// reconnects with exponential backoff when the coordinator goes away —
// so a coordinator restarted with -resume finds its fleet waiting.
// SIGINT and SIGTERM drain cleanly: in-flight cells finish and flush
// their results, unstarted assignments are handed back, and the process
// exits 128+signal (130/143). A campaign-complete bye exits 0.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		connect  = fs.String("connect", "", "coordinator TCP address (required; see `quicbench sweep -listen`)")
		name     = fs.String("name", "", "worker name in fleet telemetry (default worker-<pid>)")
		parallel = fs.Int("parallel", 1, "concurrent cell attempts")
		beat     = fs.Duration("heartbeat", time.Second, "liveness heartbeat period (keep well under the coordinator's -worker-timeout)")
		token    = fs.String("auth-token", "", "shared secret proving fleet membership (must match the coordinator's -auth-token)")
		obsAddr  = fs.String("obs-addr", "", "serve this worker's observability plane (/metrics, /statusz, /healthz, /debug/pprof) on this address")
		quiet    = fs.Bool("q", false, "suppress connection lifecycle logs")
	)
	// As in sweep: 0 for -h, 2 for a bad or undefined flag.
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *connect == "" {
		fmt.Fprintln(os.Stderr, "worker: -connect is required")
		return 2
	}
	opts := quicbench.WorkerOptions{
		Connect:           *connect,
		Name:              *name,
		Parallel:          *parallel,
		HeartbeatInterval: *beat,
		AuthToken:         *token,
		ObsAddr:           *obsAddr,
	}
	logger := telemetry.NewLogger(os.Stderr, "worker: ", false)
	if !*quiet {
		opts.Logf = logger.Infof
	}
	if *obsAddr != "" {
		opts.OnObsListen = func(addr string) {
			logger.Infof("obs listening on %s", addr)
		}
	}
	w := quicbench.NewSweepWorker(opts)

	// Signals drain rather than kill: the first SIGINT/SIGTERM finishes
	// and flushes in-flight cells before exiting, so the coordinator sees
	// a clean departure instead of a timeout. A second signal aborts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var gotSig atomic.Value
	go func() {
		if s, ok := <-sigCh; ok {
			gotSig.Store(s)
			w.Drain()
		}
		if _, ok := <-sigCh; ok {
			cancel()
		}
	}()

	err := w.Run(ctx)
	if s, _ := gotSig.Load().(os.Signal); s != nil {
		if s == syscall.SIGTERM {
			return 143
		}
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	return 0
}
