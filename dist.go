package quicbench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// WorkerOptions configures one distributed-sweep worker process (the
// `quicbench worker` subcommand) — the execution half of the fabric
// behind SweepOptions.Listen.
type WorkerOptions struct {
	// Connect is the coordinator's TCP address.
	Connect string
	// Name identifies the worker in the coordinator's fleet telemetry
	// (default "worker-<pid>").
	Name string
	// Parallel is how many cell attempts run concurrently (default 1).
	Parallel int
	// HeartbeatInterval is the liveness beat period (default 1 s); keep it
	// well under the coordinator's worker heartbeat timeout.
	HeartbeatInterval time.Duration
	// AuthToken is the fleet's shared secret; must match the
	// coordinator's -auth-token when the campaign requires one.
	AuthToken string
	// Logf, when non-nil, observes connection lifecycle events.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is the worker's own registry: trial
	// counters, in-flight occupancy, and the per-trial latency histogram,
	// piggybacked to the coordinator on every heartbeat and served
	// locally when ObsAddr is set. Nil with ObsAddr set creates a private
	// registry.
	Metrics *telemetry.Registry
	// ObsAddr, when non-empty, serves this worker's own observability
	// plane (/metrics, /statusz, /healthz, /debug/pprof) for the life of
	// Run. Bind ":0" and read the port back via OnObsListen.
	ObsAddr string
	// OnObsListen, when non-nil, receives the observability server's
	// bound address.
	OnObsListen func(addr string)
}

// SweepWorker executes sweep cells for a fabric coordinator. Create it
// with NewSweepWorker, run it with Run, and stop it cleanly with Drain.
type SweepWorker struct {
	w    *dist.Worker
	opts WorkerOptions
}

// NewSweepWorker builds a worker that executes each assignment through
// execCell — the exact code path the in-process and crash-isolated
// executors run, which is what makes fabric results bit-identical to
// local ones.
func NewSweepWorker(opts WorkerOptions) *SweepWorker {
	// Every worker owns a registry: the beat piggyback reports it to the
	// coordinator whether or not ObsAddr is set.
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	return &SweepWorker{opts: opts, w: &dist.Worker{
		Addr:              opts.Connect,
		Name:              opts.Name,
		Slots:             opts.Parallel,
		HeartbeatInterval: opts.HeartbeatInterval,
		AuthToken:         opts.AuthToken,
		Logf:              opts.Logf,
		Metrics:           opts.Metrics,
		Exec:              execCell,
	}}
}

// Run connects to the coordinator and executes assignments until the
// campaign completes (nil), Drain finishes (nil), or ctx ends
// (ctx.Err()). Connection loss is not an exit: the worker reconnects
// with exponential backoff, so a coordinator restarted with --resume
// finds its fleet waiting. With ObsAddr set, the worker's own /metrics,
// /statusz, /healthz, and /debug/pprof endpoints stay up for Run's
// lifetime.
func (sw *SweepWorker) Run(ctx context.Context) error {
	if sw.opts.ObsAddr != "" {
		srv := &obs.Server{Addr: sw.opts.ObsAddr, Registry: sw.opts.Metrics, Logf: sw.opts.Logf}
		addr, err := srv.Start()
		if err != nil {
			return fmt.Errorf("quicbench: worker obs server: %w", err)
		}
		defer srv.Stop()
		if sw.opts.OnObsListen != nil {
			sw.opts.OnObsListen(addr)
		}
	}
	return sw.w.Run(ctx)
}

// Drain asks the worker to shut down cleanly: finish and flush in-flight
// cells, hand unstarted assignments back to the coordinator, then return
// from Run. Safe to call from a signal-handler goroutine; idempotent.
func (sw *SweepWorker) Drain() {
	sw.w.Drain()
}
