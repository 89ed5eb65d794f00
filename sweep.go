package quicbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/isolate"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// SweepOptions configures a supervised conformance sweep: the grid to
// measure and the supervision policy (worker pool, retry budget, per-trial
// virtual-clock timeout, checkpoint journal).
type SweepOptions struct {
	// Stacks names the stacks under test (default: all 11 QUIC stacks).
	Stacks []string
	// CCAs selects the algorithms (default: CUBIC, BBR, Reno). Pairs a
	// stack does not implement are skipped, as in the paper's grid.
	CCAs []CCA
	// Networks lists the network configurations (default: the paper's
	// representative 20 Mbps / 10 ms / 1 BDP setting).
	Networks []Network
	// TrafficSpec, when non-empty, is a JSON many-flow traffic model (see
	// DefaultTrafficSpec for the schema): the sweep then runs one
	// many-flow cell per network — thousands of concurrent flows from the
	// spec's cohort mix churning through the bottleneck, with conformance
	// evaluated per cohort against the spec's reference cohort — instead
	// of the two-flow stack × CCA grid (Stacks/CCAs are ignored). All
	// supervision machinery (workers, isolation, checkpointing, the
	// distributed fabric, tracing) applies unchanged.
	TrafficSpec []byte
	// Impairments, when non-empty, measures every stack × CCA × network
	// cell once per entry (innermost), the impairment applied to test and
	// reference trials alike. The zero Impairment is the pristine cell.
	// Empty means a pristine grid. Not valid with TrafficSpec.
	Impairments []Impairment
	// Workers bounds the concurrent cells (default 1).
	Workers int
	// Retries is the per-cell attempt budget (default 3).
	Retries int
	// TrialTimeout caps each underlying trial's virtual clock; 0 disables.
	TrialTimeout time.Duration
	// Seed seeds the deterministic retry-backoff jitter.
	Seed uint64
	// Checkpoint is the JSONL journal path ("" disables checkpointing).
	Checkpoint string
	// Resume replays the journal at Checkpoint and re-executes only
	// missing, failed, or skipped cells.
	Resume bool
	// Progress, when non-nil, observes each cell result as it completes
	// (calls are serialized).
	Progress func(SweepCellResult)
	// Isolate executes each cell attempt in a crash-isolated child
	// process (the hidden `quicbench _trial` mode): a hard crash, wedge,
	// or memory blowout kills only that cell's child, which the parent
	// reaps, classifies, and retries. When spawning fails the cell falls
	// back to in-process execution — isolation degrades, never errors.
	Isolate bool
	// IsolateMemLimitMB, when positive, is each child's soft heap
	// ceiling in MiB (debug.SetMemoryLimit, hard self-check at 2x).
	IsolateMemLimitMB int
	// IsolateStallTimeout is how long a child may go without a heartbeat
	// before the reaper SIGKILLs it (0 selects 10 s).
	IsolateStallTimeout time.Duration
	// IsolateWallTimeout, when positive, is a wall-clock deadline per
	// child attempt, enforced by SIGKILL and classified as a timeout.
	IsolateWallTimeout time.Duration
	// Listen, when non-empty, runs the sweep on the distributed fabric:
	// the coordinator binds this TCP address (e.g. "127.0.0.1:0") and
	// shards cell attempts across connected `quicbench worker` processes.
	// Workers heartbeat; a stalled or crashed worker's trials re-dispatch
	// to healthy ones, and an empty fleet degrades to local execution
	// (through the Isolate executor when that is set). Checkpoint records
	// flush in cell input order, so the distributed journal is
	// byte-identical to a single-process run's.
	Listen string
	// OnListen, when non-nil, receives the coordinator's bound address
	// (useful with a ":0" Listen) before any trial is dispatched.
	OnListen func(addr string)
	// MinWorkers, when positive, waits for that many workers to connect
	// before dispatching trials (bounded by MinWorkersTimeout; on timeout
	// the sweep proceeds with whatever fleet it has).
	MinWorkers int
	// MinWorkersTimeout bounds the MinWorkers wait (default 30 s).
	MinWorkersTimeout time.Duration
	// WorkerHeartbeatTimeout is how long a worker may go silent before
	// the coordinator reaps it and re-dispatches its trials (default 10 s).
	WorkerHeartbeatTimeout time.Duration
	// AuthToken, when non-empty, requires every worker to prove it holds
	// the same shared secret in its hello handshake (HMAC, token never on
	// the wire); unauthenticated peers are dropped before dispatch.
	AuthToken string
	// WorkerAllowlist, when non-empty, restricts admission to workers
	// whose name or host appears in the list (see -workers-file).
	WorkerAllowlist []string
	// Logf, when non-nil, observes fabric lifecycle events (worker joins,
	// deaths, re-dispatches) and non-fatal supervision warnings (e.g. a
	// torn journal tail truncated on resume). Must be concurrency-safe.
	Logf func(format string, args ...any)
	// OnFallback, when non-nil, observes each cell that degraded from
	// isolated to in-process execution (Isolate only; must be
	// concurrency-safe).
	OnFallback func(cell string, err error)
	// OnRetry, when non-nil, observes each failed cell attempt about to be
	// retried, with the backoff about to be slept (must be
	// concurrency-safe).
	OnRetry func(cell string, attempt int, err error, backoff time.Duration)
	// TraceDir, when non-empty, enables qlog-style structured tracing: each
	// cell gets a subdirectory holding one .qlog.jsonl trace per trial
	// (cwnd/ssthresh updates, CC state transitions, loss and PTO events,
	// end-of-trial summaries). Traces are seed-stable: in-process and
	// isolated runs of the same sweep produce byte-identical files.
	TraceDir string
	// TracePackets additionally streams each trial's bottleneck link events
	// to a .packets.csv next to its qlog (O(1) memory, any trial length).
	TracePackets bool
	// ProgressOut, when non-nil, receives a live one-line progress render
	// (cells done/total, retries, ETA, worker and child state), rewritten
	// each tick — typically os.Stderr.
	ProgressOut io.Writer
	// StatusPath, when non-empty, appends a machine-readable JSONL status
	// snapshot per tick (telemetry.StatusSnapshot lines).
	StatusPath string
	// StatusInterval is the progress/status tick period (default 1s).
	StatusInterval time.Duration
	// Metrics, when non-nil, is the counters/gauges registry the sweep
	// reports into (cells done/failed, retries, isolation fallbacks, packet
	// pool traffic); status snapshots embed its contents. Nil with progress
	// enabled creates a private registry.
	Metrics *telemetry.Registry
	// ObsAddr, when non-empty, serves the observability plane over HTTP
	// for the life of the sweep: /metrics (Prometheus text, per-worker
	// and fleet-summed series when the fabric is up), /statusz (the
	// quicbench-status/v1 snapshot), /healthz, and /debug/pprof. Bind
	// ":0" for an ephemeral port and read it back via OnObsListen.
	ObsAddr string
	// OnObsListen, when non-nil, receives the observability server's
	// bound address before any trial is dispatched.
	OnObsListen func(addr string)
	// ObsWait keeps the observability endpoints up that long after the
	// sweep completes, so a scraper can take a final converged reading
	// (campaign totals, fleet counters) before the process exits.
	ObsWait time.Duration
}

// Impairment describes path impairment on the data path (ACKs stay
// clean), in the tc-netem vocabulary: an i.i.d. loss probability or a
// Gilbert–Elliott burst channel, duplication/corruption taps, and an
// optional blackout window. The zero value is the pristine testbed.
type Impairment struct {
	// LossProb is the i.i.d. per-packet loss probability.
	LossProb float64
	// Burst replaces the i.i.d. process with a Gilbert–Elliott burst
	// channel of roughly 1% mean loss in ~25-packet bursts.
	Burst bool
	// DupProb / CorruptProb are per-packet duplication and corruption
	// probabilities.
	DupProb     float64
	CorruptProb float64
	// BlackoutStart/BlackoutDuration describe a total outage window of the
	// data path (zero duration = no blackout).
	BlackoutStart    time.Duration
	BlackoutDuration time.Duration
}

// toCore lowers the public spec to the cell's impairment; the pristine
// testbed lowers to nil, so its cell key and spec match an unimpaired
// grid's.
func (m Impairment) toCore() *core.Impairment {
	if m == (Impairment{}) {
		return nil
	}
	imp := &core.Impairment{LossProb: m.LossProb, DupProb: m.DupProb, CorruptProb: m.CorruptProb}
	if m.Burst {
		b := core.DefaultBurst
		imp.LossProb, imp.Burst = 0, &b
	}
	if m.BlackoutDuration > 0 {
		from := sim.Duration(m.BlackoutStart)
		imp.Blackouts = []faults.Window{{From: from, To: from + sim.Duration(m.BlackoutDuration)}}
	}
	return imp
}

// SweepCellResult is one cell of a supervised sweep: its identity, the
// supervised outcome, and the metrics when the cell completed.
type SweepCellResult struct {
	Cell     string
	Outcome  string // "ok", "retried", "failed", or "skipped"
	Attempts int
	// Report holds the §3 metrics; valid only when Completed() is true.
	Report Report
	// Err is the typed failure text for failed/skipped cells.
	Err string
}

// Completed reports whether the cell produced metrics.
func (r SweepCellResult) Completed() bool {
	return r.Outcome == string(runner.OutcomeOK) || r.Outcome == string(runner.OutcomeRetried)
}

// SweepSummary is the merged result of a sweep, in grid order regardless of
// completion order or how many runs it took to get here.
type SweepSummary struct {
	Cells []SweepCellResult
	// Reused counts cells replayed from the checkpoint journal.
	Reused int
	// Interrupted reports that the sweep was cancelled before finishing;
	// re-run with Resume to pick up where it left off.
	Interrupted bool
}

// Failed counts cells that exhausted their retry budget.
func (s *SweepSummary) Failed() int { return s.count(runner.OutcomeFailed) }

// Skipped counts cells abandoned by cancellation.
func (s *SweepSummary) Skipped() int { return s.count(runner.OutcomeSkipped) }

func (s *SweepSummary) count(o runner.Outcome) int {
	n := 0
	for _, c := range s.Cells {
		if c.Outcome == string(o) {
			n++
		}
	}
	return n
}

// sweepCells expands the options into the internal grid.
func sweepCells(opts SweepOptions) ([]core.SweepCell, error) {
	if len(opts.TrafficSpec) > 0 {
		if len(opts.Impairments) > 0 {
			return nil, fmt.Errorf("quicbench: impairments do not apply to many-flow cells")
		}
		spec, err := traffic.ParseSpec(opts.TrafficSpec)
		if err != nil {
			return nil, err
		}
		nets := opts.Networks
		if len(nets) == 0 {
			nets = []Network{{}}
		}
		cnets := make([]core.Network, len(nets))
		for i, n := range nets {
			cnets[i] = n.toCore()
		}
		return core.ManyFlowCells(spec, cnets)
	}
	names := opts.Stacks
	if len(names) == 0 {
		for _, s := range stacks.QUICStacks() {
			names = append(names, s.Name)
		}
	}
	ccas := opts.CCAs
	if len(ccas) == 0 {
		ccas = AllCCAs
	}
	sccas := make([]stacks.CCA, len(ccas))
	for i, c := range ccas {
		sccas[i] = stacks.CCA(c)
	}
	nets := opts.Networks
	if len(nets) == 0 {
		nets = []Network{{}}
	}
	cnets := make([]core.Network, len(nets))
	for i, n := range nets {
		cnets[i] = n.toCore()
	}
	cells, err := core.GridCells(names, sccas, cnets)
	if err != nil || len(opts.Impairments) == 0 {
		return cells, err
	}
	out := make([]core.SweepCell, 0, len(cells)*len(opts.Impairments))
	for _, c := range cells {
		for _, imp := range opts.Impairments {
			c.Impair = imp.toCore()
			out = append(out, c)
		}
	}
	return out, nil
}

// cellResult lowers a journal record to the public result type.
func cellResult(rec runner.Record) SweepCellResult {
	out := SweepCellResult{
		Cell:     rec.Key,
		Outcome:  string(rec.Outcome),
		Attempts: rec.Attempts,
		Err:      rec.Err,
	}
	if len(rec.Result) > 0 {
		var cr core.CellReport
		if err := json.Unmarshal(rec.Result, &cr); err == nil {
			out.Report = Report{
				Conformance:         cr.Conformance,
				ConformanceOld:      cr.ConformanceOld,
				ConformanceT:        cr.ConformanceT,
				DeltaThroughputMbps: cr.DeltaThroughputMbps,
				DeltaDelayMs:        cr.DeltaDelayMs,
				K:                   cr.K,
				ManyFlow:            fromManyFlowReport(cr.ManyFlow),
			}
		}
	}
	return out
}

// RunSweep measures conformance over the requested grid under full
// supervision: each cell runs on a bounded worker pool with panic
// isolation, deterministic retry/backoff, and an optional per-trial
// virtual-clock timeout. With a Checkpoint path every completed cell is
// journaled (fsync'd JSONL), and Resume replays the journal so an
// interrupted sweep continues exactly where it stopped — the merged results
// are bit-identical to an uninterrupted run. Cancelling ctx (e.g. on
// SIGINT) drains in-flight cells gracefully: running trials abort at the
// next watchdog tick, pending cells record "skipped", and the journal stays
// valid for resumption.
func RunSweep(ctx context.Context, opts SweepOptions) (*SweepSummary, error) {
	cells, err := sweepCells(opts)
	if err != nil {
		return nil, err
	}
	cfg := core.SweepConfig{
		Config: runner.Config{
			Workers:     opts.Workers,
			MaxAttempts: opts.Retries,
			Seed:        opts.Seed,
			Warnf:       opts.Logf,
		},
		TrialDeadline: sim.Duration(opts.TrialTimeout),
		Checkpoint:    opts.Checkpoint,
		Resume:        opts.Resume,
		Trace:         core.TraceOptions{Dir: opts.TraceDir, Packets: opts.TracePackets},
	}

	// Telemetry: counters always feed the registry when one is configured;
	// the live progress renderer additionally needs one for its status
	// snapshots, so a private registry is created on demand.
	reg := opts.Metrics
	wantProgress := opts.ProgressOut != nil || opts.StatusPath != ""
	if reg == nil && (wantProgress || opts.ObsAddr != "") {
		reg = telemetry.NewRegistry()
	}
	var cDone, cFailed, cRetries, cFallbacks *telemetry.Counter
	if reg != nil {
		cDone = reg.Counter("sweep.cells_done")
		cFailed = reg.Counter("sweep.cells_failed")
		cRetries = reg.Counter("runner.retries")
		cFallbacks = reg.Counter("isolate.fallbacks")
		reg.RegisterFunc("netem.pool_gets", func() int64 { g, _, _ := netem.PoolStats(); return g })
		reg.RegisterFunc("netem.pool_outstanding", func() int64 { g, p, _ := netem.PoolStats(); return g - p })
		reg.RegisterFunc("netem.pool_news", func() int64 { _, _, n := netem.PoolStats(); return n })
	}

	// Hot-seam histograms: per-executor trial wall latency (also feeds the
	// progress renderer's p99 column) and the supervisor's computed retry
	// backoff delays.
	var latHist, backoffHist *telemetry.Histogram
	if reg != nil {
		execName := "inproc"
		switch {
		case opts.Listen != "":
			execName = "dist"
		case opts.Isolate:
			execName = "isolate"
		}
		latHist = reg.Histogram("sweep.trial_latency_us." + execName)
		backoffHist = reg.Histogram("runner.backoff_us")
	}
	var ex *isolate.Executor
	if opts.Isolate {
		ex = &isolate.Executor{
			StallTimeout:  opts.IsolateStallTimeout,
			WallDeadline:  opts.IsolateWallTimeout,
			MemLimitBytes: int64(opts.IsolateMemLimitMB) << 20,
			OnFallback: func(cell string, ferr error) {
				if cFallbacks != nil {
					cFallbacks.Inc()
				}
				if opts.OnFallback != nil {
					opts.OnFallback(cell, ferr)
				}
			},
		}
		defer ex.Close()
		cfg.Executor = ex
	}

	var coord *dist.Coordinator
	if opts.Listen != "" {
		coord = &dist.Coordinator{
			HeartbeatTimeout: opts.WorkerHeartbeatTimeout,
			AuthToken:        opts.AuthToken,
			Allowed:          opts.WorkerAllowlist,
			Logf:             opts.Logf,
			Metrics:          reg,
		}
		if ex != nil {
			coord.Local = ex // empty-fleet degradation keeps crash isolation
		}
		addr, lerr := coord.Listen(opts.Listen)
		if lerr != nil {
			return nil, fmt.Errorf("quicbench: %w", lerr)
		}
		defer coord.Close()
		if opts.OnListen != nil {
			opts.OnListen(addr)
		}
		cfg.Executor = coord
		// Ordered journal flushing is what keeps a multi-worker distributed
		// checkpoint byte-identical to a single-process run — and any crash
		// leaves it a clean prefix for --resume.
		cfg.OrderedJournal = true
		if reg != nil {
			reg.RegisterFunc("dist.workers", func() int64 { return int64(coord.Stats().Workers) })
			reg.RegisterFunc("dist.joins", func() int64 { return coord.Stats().Joins })
			reg.RegisterFunc("dist.deaths", func() int64 { return coord.Stats().Deaths })
			reg.RegisterFunc("dist.redispatches", func() int64 { return coord.Stats().Redispatches })
			reg.RegisterFunc("dist.remote_trials", func() int64 { return coord.Stats().RemoteTrials })
			reg.RegisterFunc("dist.local_trials", func() int64 { return coord.Stats().LocalTrials })
			reg.RegisterFunc("dist.divergences", func() int64 { return coord.Stats().Divergences })
			reg.RegisterFunc("dist.corrupt_frames", func() int64 { return coord.Stats().CorruptFrames })
			reg.RegisterFunc("dist.auth_failures", func() int64 { return coord.Stats().AuthFailures })
		}
	}

	var prog *telemetry.Progress
	if wantProgress {
		prog = &telemetry.Progress{
			Total:    len(cells),
			Out:      opts.ProgressOut,
			Interval: opts.StatusInterval,
			Registry: reg,
			Latency:  latHist,
		}
		if opts.StatusPath != "" {
			if dir := filepath.Dir(opts.StatusPath); dir != "." {
				if serr := os.MkdirAll(dir, 0o755); serr != nil {
					return nil, fmt.Errorf("quicbench: status file: %w", serr)
				}
			}
			f, serr := os.Create(opts.StatusPath)
			if serr != nil {
				return nil, fmt.Errorf("quicbench: status file: %w", serr)
			}
			defer f.Close()
			prog.Status = f
		}
		if ex != nil {
			prog.Children = func() []telemetry.ChildStat {
				kids := ex.LiveChildren()
				out := make([]telemetry.ChildStat, len(kids))
				for i, k := range kids {
					out[i] = telemetry.ChildStat(k)
				}
				return out
			}
		}
		if coord != nil {
			prog.Fleet = func() []telemetry.FleetStat {
				ws := coord.FleetStats()
				out := make([]telemetry.FleetStat, len(ws))
				for i, w := range ws {
					out[i] = telemetry.FleetStat{
						Name: w.Name, Addr: w.Addr, State: w.State,
						InFlight: w.InFlight, Done: int(w.Done),
						HeartbeatAge: w.HeartbeatAge,
					}
				}
				return out
			}
		}
		defer prog.Start()()
	}

	if opts.ObsAddr != "" {
		srv := &obs.Server{Addr: opts.ObsAddr, Registry: reg, Logf: opts.Logf}
		if prog != nil {
			srv.Status = prog.Snapshot
		}
		if coord != nil {
			srv.Workers = func() []obs.WorkerMetrics {
				fm := coord.FleetMetrics()
				out := make([]obs.WorkerMetrics, len(fm))
				for i, wm := range fm {
					out[i] = obs.WorkerMetrics{Worker: wm.Worker, Samples: wm.Samples, Hists: wm.Hists}
				}
				return out
			}
		}
		addr, oerr := srv.Start()
		if oerr != nil {
			return nil, fmt.Errorf("quicbench: obs server: %w", oerr)
		}
		defer srv.Stop()
		if opts.OnObsListen != nil {
			opts.OnObsListen(addr)
		}
	}

	// The fleet wait runs after every endpoint (coordinator socket, obs
	// server) is announced, so workers and scrapers spawned off those
	// lines can connect while the wait is in progress.
	if coord != nil && opts.MinWorkers > 0 {
		wait := opts.MinWorkersTimeout
		if wait <= 0 {
			wait = 30 * time.Second
		}
		wctx, wcancel := context.WithTimeout(ctx, wait)
		n, ok := coord.WaitWorkers(wctx, opts.MinWorkers)
		wcancel()
		if !ok && opts.Logf != nil {
			opts.Logf("quicbench: proceeding with %d/%d workers after %v", n, opts.MinWorkers, wait)
		}
	}

	// started tracks which cells actually executed this run, so OnRecord can
	// tell fresh results from journal replays (replays never start a trial);
	// startedAt pins each cell's first attempt start for wall latency.
	var startedMu sync.Mutex
	started := make(map[string]bool)
	startedAt := make(map[string]time.Time)
	cfg.OnTrialStart = func(key string, worker, attempt int) {
		startedMu.Lock()
		started[key] = true
		if _, ok := startedAt[key]; !ok {
			startedAt[key] = time.Now()
		}
		startedMu.Unlock()
		if prog != nil {
			prog.TrialStarted(key, worker, attempt)
		}
	}
	cfg.OnRetry = func(key string, attempt int, rerr error, backoff time.Duration) {
		if cRetries != nil {
			cRetries.Inc()
		}
		if backoffHist != nil {
			backoffHist.ObserveDuration(backoff)
		}
		if opts.OnRetry != nil {
			opts.OnRetry(key, attempt, rerr, backoff)
		}
	}
	cfg.OnRecord = func(rec runner.Record) {
		startedMu.Lock()
		fresh := started[rec.Key]
		start := startedAt[rec.Key]
		startedMu.Unlock()
		failed := rec.Outcome == runner.OutcomeFailed
		reused := !fresh && (rec.Outcome == runner.OutcomeOK || rec.Outcome == runner.OutcomeRetried)
		if fresh && latHist != nil {
			// First-start → record: the cell's supervised wall latency,
			// retries and backoff included. Replays never observe.
			latHist.ObserveDuration(time.Since(start))
		}
		if cDone != nil {
			cDone.Inc()
		}
		if failed && cFailed != nil {
			cFailed.Inc()
		}
		if prog != nil {
			prog.TrialFinished(rec.Key, failed, reused)
		}
		if opts.Progress != nil {
			opts.Progress(cellResult(rec))
		}
	}

	res, err := core.RunSweep(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	if opts.ObsAddr != "" && opts.ObsWait > 0 {
		// Linger so an external scraper can take a final converged reading
		// before the endpoints disappear with the process.
		if opts.Logf != nil {
			opts.Logf("quicbench: obs endpoints linger %v for a final scrape", opts.ObsWait)
		}
		select {
		case <-time.After(opts.ObsWait):
		case <-ctx.Done():
		}
	}
	sum := &SweepSummary{Reused: res.Reused, Interrupted: res.Interrupted}
	for _, rec := range res.Records {
		sum.Cells = append(sum.Cells, cellResult(rec))
	}
	return sum, nil
}

// TrialChildMain is the body of the hidden `quicbench _trial` mode — the
// child half of sweep isolation: a one-slot fabric worker on stdin/stdout
// (the supervision parameters ride the tail of os.Args, see
// isolate.ChildMain) executing its one sweep cell through execCell, the
// exact code path the in-process executor and `quicbench worker` use, so
// results are bit-identical across executors. It returns the process exit
// code. Test binaries reach it through TestMain when the
// isolate.ChildEnvMarker environment variable is set.
func TrialChildMain() int {
	return isolate.ChildMain(os.Args, os.Stdin, os.Stdout, execCell)
}

// execCell runs one assignment's payload — a marshalled
// core.CellTrialSpec — on whichever fabric worker received it.
func execCell(ctx context.Context, key string, seed uint64, payload json.RawMessage) (json.RawMessage, error) {
	return core.ExecuteCellSpec(ctx, payload)
}

// RenderSweep writes the outcome-annotated sweep table and summary line.
func RenderSweep(w io.Writer, s *SweepSummary) error {
	rows := make([]report.SweepRow, len(s.Cells))
	for i, c := range s.Cells {
		rows[i] = report.SweepRow{
			Cell:      c.Cell,
			Outcome:   runner.Outcome(c.Outcome),
			Attempts:  c.Attempts,
			Conf:      c.Report.Conformance,
			ConfT:     c.Report.ConformanceT,
			DTputMbps: c.Report.DeltaThroughputMbps,
			DDelayMs:  c.Report.DeltaDelayMs,
			K:         c.Report.K,
			Err:       c.Err,
		}
		if mf := c.Report.ManyFlow; mf != nil && c.Completed() {
			for _, co := range mf.Cohorts {
				rows[i].Cohorts = append(rows[i].Cohorts, report.CohortRow{
					Name:      co.Name,
					Reference: co.Reference,
					Conf:      co.Conformance,
					ConfT:     co.ConformanceT,
					DTputMbps: co.DeltaThroughputMbps,
					DDelayMs:  co.DeltaDelayMs,
					K:         co.K,
					Flows:     co.Flows,
					Completed: co.Completed,
					FCTms:     co.MeanFCTms,
					Mbps:      co.MeanMbps,
					Jain:      co.Jain,
				})
			}
		}
	}
	if err := report.RenderSweep(w, rows, s.Interrupted); err != nil {
		return err
	}
	if s.Reused > 0 {
		noun := "cells"
		if s.Reused == 1 {
			noun = "cell"
		}
		if _, err := fmt.Fprintf(w, "(%d %s replayed from checkpoint)\n", s.Reused, noun); err != nil {
			return err
		}
	}
	return nil
}
