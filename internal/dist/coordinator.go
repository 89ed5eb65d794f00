package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist/frame"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Typed fabric failures. Worker loss and stall are internal re-dispatch
// triggers; ErrTrialAbandoned is what finally reaches the supervisor's
// retry machinery when a trial keeps losing workers.
var (
	// ErrWorkerLost marks a worker whose connection dropped with trials
	// in flight — a crash, a kill -9, or a network partition.
	ErrWorkerLost = errors.New("dist: worker connection lost")
	// ErrWorkerStalled marks a worker the reaper declared dead after its
	// heartbeats went silent for longer than the stall budget.
	ErrWorkerStalled = errors.New("dist: worker heartbeats stalled")
	// ErrTrialAbandoned marks an attempt that was re-dispatched to the
	// cap and still never came back; the supervisor's deterministic
	// retry/backoff handles it like any other classified failure.
	ErrTrialAbandoned = errors.New("dist: trial abandoned after repeated worker losses")
)

// errWorkerDrained is the internal loss reason for assignments a worker
// handed back in a clean drain; they re-dispatch without counting
// against the abandonment cap.
var errWorkerDrained = errors.New("dist: worker drained")

// Coordinator shards trial attempts across TCP-connected workers and
// implements runner.TrialExecutor. The zero value is usable after
// Listen; Close tears the fleet down once the campaign is over.
type Coordinator struct {
	// Local executes attempts when the fleet is empty (and trials whose
	// Spec cannot cross a process boundary). Nil selects
	// runner.InProcess — distribution degrades, it never errors.
	Local runner.TrialExecutor
	// HeartbeatTimeout is how long a worker may go silent before the
	// reaper declares it dead and re-dispatches its trials (default
	// 10 s; also satisfied by results, not just beats).
	HeartbeatTimeout time.Duration
	// MaxRedispatch caps how many workers one attempt may lose before
	// the attempt is abandoned to the supervisor's retry machinery
	// (default 3). Clean drains do not count.
	MaxRedispatch int
	// AuthToken, when non-empty, requires every worker's hello to carry a
	// valid HMAC over this shared secret; unauthenticated peers get a
	// typed bye and are dropped before any dispatch.
	AuthToken string
	// Allowed, when non-empty, is the admission allowlist: a worker is
	// admitted only if its hello name, its remote host:port, or its
	// remote host matches an entry (the -workers-file contents).
	Allowed []string
	// Logf, when non-nil, observes fleet events (joins, deaths, drains,
	// re-dispatches). Must be safe for concurrent use.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the coordinator's own hot-seam
	// histograms: dist.assign_rtt_us (assign write → result arrival, per
	// dispatch) and dist.worker_queue_depth (the chosen worker's in-flight
	// depth at dispatch, this assignment included).
	Metrics *telemetry.Registry

	mu        sync.Mutex
	cond      *sync.Cond
	workers   map[*remoteWorker]struct{}
	gone      []WorkerStat // recent departures, newest last, for FleetStats
	beatCache map[string]*beatMsg
	closed    bool
	ln        net.Listener
	wg        sync.WaitGroup
	stop      chan struct{}

	joins       atomic.Int64
	deaths      atomic.Int64
	drains      atomic.Int64
	remote      atomic.Int64
	local       atomic.Int64
	redispatch  atomic.Int64
	resultsLate atomic.Int64

	divergences   atomic.Int64
	corruptFrames atomic.Int64
	authFailures  atomic.Int64
}

// remoteWorker is one connected worker as the coordinator sees it.
type remoteWorker struct {
	name     string
	addr     string
	slots    int
	conn     net.Conn
	out      *msgWriter
	lastBeat atomic.Int64 // unix nanos of the last frame received

	// Guarded by the coordinator's mu.
	inflight map[string]*pendingTrial
	draining bool
	dead     error // non-nil once a death reason is recorded
	done     int64 // completed assignments
}

// pendingTrial is one dispatched assignment awaiting its result.
type pendingTrial struct {
	ch chan dispatchOutcome // buffered(1); exactly one send
}

// dispatchOutcome is how one dispatch ended: a result from the worker,
// or a loss (worker death, stall, or clean drain hand-back).
type dispatchOutcome struct {
	res     *resultMsg
	lost    error
	requeue bool // clean hand-back: re-dispatch without charging the cap
}

// Stats is a snapshot of the fabric's counters.
type Stats struct {
	Workers       int   // currently connected
	Joins         int64 // workers ever accepted
	Deaths        int64 // workers lost (connection drop or heartbeat stall)
	Drains        int64 // workers that departed via a clean drain
	RemoteTrials  int64 // attempts completed on the fleet
	LocalTrials   int64 // attempts degraded to local execution
	Redispatches  int64 // in-flight trials moved to another worker
	LateResults   int64 // results for trials already cancelled or re-dispatched
	Divergences   int64 // results whose spec or result digest failed to verify
	CorruptFrames int64 // malformed/oversize/checksum-failing frames from workers
	AuthFailures  int64 // peers rejected by handshake auth or allowlist
}

// WorkerStat is one worker's row in the fleet-liveness snapshot.
type WorkerStat struct {
	Name         string
	Addr         string
	State        string // "idle", "busy", "draining", "dead", "drained"
	Slots        int
	InFlight     int
	Done         int64
	HeartbeatAge time.Duration
}

func (c *Coordinator) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	return 10 * time.Second
}

func (c *Coordinator) maxRedispatch() int {
	if c.MaxRedispatch > 0 {
		return c.MaxRedispatch
	}
	return 3
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// init lazily prepares the coordinator's shared state.
func (c *Coordinator) init() {
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
		c.workers = make(map[*remoteWorker]struct{})
		c.beatCache = make(map[string]*beatMsg)
		c.stop = make(chan struct{})
	}
}

// Listen binds addr (e.g. "127.0.0.1:0"), starts the accept loop and the
// heartbeat reaper, and returns the bound address.
func (c *Coordinator) Listen(addr string) (string, error) {
	c.mu.Lock()
	c.init()
	if c.closed {
		c.mu.Unlock()
		return "", errors.New("dist: coordinator closed")
	}
	if c.ln != nil {
		c.mu.Unlock()
		return "", errors.New("dist: coordinator already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.mu.Unlock()
		return "", fmt.Errorf("dist: listen: %w", err)
	}
	c.ln = ln
	c.mu.Unlock()

	c.wg.Add(2)
	go c.acceptLoop(ln)
	go c.reapLoop()
	return ln.Addr().String(), nil
}

// Close ends the campaign: stops accepting, sends bye to every worker,
// closes their connections, and waits for all fabric goroutines.
// Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.init()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ln := c.ln
	kids := make([]*remoteWorker, 0, len(c.workers))
	for w := range c.workers {
		kids = append(kids, w)
	}
	close(c.stop)
	c.cond.Broadcast()
	c.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, w := range kids {
		_ = w.out.write(wireMsg{Type: msgBye, Bye: &byeMsg{Code: byeComplete, Reason: "campaign complete"}})
		w.conn.Close()
	}
	c.wg.Wait()
}

// WaitWorkers blocks until at least n workers are connected, the context
// ends, or the coordinator closes. It returns the number connected when
// it stopped waiting and whether the target was reached.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) (int, bool) {
	c.mu.Lock()
	c.init()
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	defer c.mu.Unlock()
	for {
		if len(c.workers) >= n {
			return len(c.workers), true
		}
		if ctx.Err() != nil || c.closed {
			return len(c.workers), false
		}
		c.cond.Wait()
	}
}

// Stats snapshots the fabric counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	n := len(c.workers)
	c.mu.Unlock()
	return Stats{
		Workers:       n,
		Joins:         c.joins.Load(),
		Deaths:        c.deaths.Load(),
		Drains:        c.drains.Load(),
		RemoteTrials:  c.remote.Load(),
		LocalTrials:   c.local.Load(),
		Redispatches:  c.redispatch.Load(),
		LateResults:   c.resultsLate.Load(),
		Divergences:   c.divergences.Load(),
		CorruptFrames: c.corruptFrames.Load(),
		AuthFailures:  c.authFailures.Load(),
	}
}

// FleetStats snapshots per-worker liveness — connected workers plus the
// most recent departures — sorted by name, for progress displays and
// status files.
func (c *Coordinator) FleetStats() []WorkerStat {
	now := time.Now()
	c.mu.Lock()
	out := make([]WorkerStat, 0, len(c.workers)+len(c.gone))
	for w := range c.workers {
		st := WorkerStat{
			Name:         w.name,
			Addr:         w.addr,
			State:        "idle",
			Slots:        w.slots,
			InFlight:     len(w.inflight),
			Done:         w.done,
			HeartbeatAge: now.Sub(time.Unix(0, w.lastBeat.Load())),
		}
		switch {
		case w.draining:
			st.State = "draining"
		case len(w.inflight) > 0:
			st.State = "busy"
		}
		out = append(out, st)
	}
	out = append(out, c.gone...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WorkerMetrics is one worker's latest beat-piggybacked metric snapshot.
type WorkerMetrics struct {
	Worker  string
	Samples []telemetry.Sample
	Hists   []telemetry.HistogramSnapshot
}

// FleetMetrics returns the latest metric snapshot per worker name,
// sorted by name — the fleet-aggregation source for /metrics. Departed
// workers keep their final snapshot for the life of the campaign.
func (c *Coordinator) FleetMetrics() []WorkerMetrics {
	c.mu.Lock()
	c.init()
	out := make([]WorkerMetrics, 0, len(c.beatCache))
	for name, b := range c.beatCache {
		out = append(out, WorkerMetrics{Worker: name, Samples: b.Samples, Hists: b.Hists})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// ExecuteTrial implements runner.TrialExecutor: dispatch the attempt to
// a healthy worker, re-dispatching on worker loss, and degrade to local
// execution when the fleet is empty. Failures reported by workers come
// back as classified *runner.TrialError exactly like local ones.
func (c *Coordinator) ExecuteTrial(ctx context.Context, tr runner.Trial, attempt int) (json.RawMessage, *runner.TrialError) {
	if tr.Spec == nil {
		return c.runLocal(ctx, tr, attempt)
	}
	payload, err := json.Marshal(tr.Spec)
	if err != nil {
		return c.runLocal(ctx, tr, attempt)
	}
	losses := 0
	// Exclusion is by name, not connection: a worker that lost this trial
	// once (crash, stall, partition) is not trusted with it again even if
	// it reconnects — otherwise a black-holed worker that keeps rejoining
	// could eat every re-dispatch until the trial is abandoned.
	excluded := make(map[string]bool)
	for {
		w, p := c.acquire(ctx, tr.Key, excluded)
		if w == nil {
			if ctx.Err() != nil {
				return nil, &runner.TrialError{Key: tr.Key, Attempt: attempt,
					Kind: runner.FailInterrupted, Err: ctx.Err()}
			}
			// Fleet empty (or every survivor already failed this trial):
			// graceful degradation to local execution.
			return c.runLocal(ctx, tr, attempt)
		}
		out := c.dispatch(ctx, w, p, tr, attempt, payload)
		if out.res != nil {
			w.lastBeat.Store(time.Now().UnixNano())
			if digestsVerify(payload, out.res) {
				return c.classify(tr, attempt, out.res)
			}
			// The worker answered for bytes other than the spec it was
			// sent, or its result digest does not cover the result it
			// shipped: cross-wired or corrupted. Re-dispatch it like a
			// lost trial.
			c.divergences.Add(1)
			out.lost = fmt.Errorf("dist: worker %s result fails digest check", w.name)
		} else if errors.Is(out.lost, context.Canceled) || errors.Is(out.lost, context.DeadlineExceeded) {
			return nil, &runner.TrialError{Key: tr.Key, Attempt: attempt,
				Kind: runner.FailInterrupted, Err: out.lost}
		}
		// Worker lost, drained, or failed the digest check mid-trial: move
		// the attempt to a healthy worker. Clean drains do not count
		// against the cap.
		excluded[w.name] = true
		c.redispatch.Add(1)
		if !out.requeue {
			losses++
		}
		c.logf("dist: re-dispatching %s after %v (loss %d/%d)",
			tr.Key, out.lost, losses, c.maxRedispatch())
		if losses > c.maxRedispatch() {
			return nil, &runner.TrialError{Key: tr.Key, Attempt: attempt, Kind: runner.FailError,
				Err: fmt.Errorf("%w (cap %d)", ErrTrialAbandoned, c.maxRedispatch())}
		}
	}
}

// runLocal degrades one attempt to the local executor.
func (c *Coordinator) runLocal(ctx context.Context, tr runner.Trial, attempt int) (json.RawMessage, *runner.TrialError) {
	c.local.Add(1)
	ex := c.Local
	if ex == nil {
		ex = runner.InProcess{}
	}
	return ex.ExecuteTrial(ctx, tr, attempt)
}

// classify counts a completed remote attempt and lowers its result.
func (c *Coordinator) classify(tr runner.Trial, attempt int, res *resultMsg) (json.RawMessage, *runner.TrialError) {
	c.remote.Add(1)
	return lowerResult(tr.Key, attempt, res)
}

// acquire blocks until a healthy worker has a free slot (registering the
// pending trial under the lock), the fleet empties, or ctx ends. A nil
// worker means "run it locally" (or "interrupted" — callers check ctx).
func (c *Coordinator) acquire(ctx context.Context, key string, excluded map[string]bool) (*remoteWorker, *pendingTrial) {
	c.mu.Lock()
	c.init()
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	defer c.mu.Unlock()
	for {
		if ctx.Err() != nil || c.closed {
			return nil, nil
		}
		var best *remoteWorker
		eligible := 0
		for w := range c.workers {
			if w.dead != nil || w.draining || excluded[w.name] {
				continue
			}
			eligible++
			if len(w.inflight) >= w.slots {
				continue
			}
			if best == nil || len(w.inflight) < len(best.inflight) ||
				(len(w.inflight) == len(best.inflight) && w.name < best.name) {
				best = w
			}
		}
		if eligible == 0 {
			return nil, nil // nobody left to ask: degrade to local
		}
		if best != nil {
			p := &pendingTrial{ch: make(chan dispatchOutcome, 1)}
			best.inflight[key] = p
			depth := len(best.inflight)
			if c.Metrics != nil {
				// Depth of the least-loaded worker at dispatch time, this
				// assignment included: the fabric's queueing signal.
				c.Metrics.Histogram("dist.worker_queue_depth").Observe(int64(depth))
			}
			return best, p
		}
		c.cond.Wait() // workers exist but all slots are busy
	}
}

// dispatch ships the assignment and waits for its outcome, a loss
// notification, or cancellation.
func (c *Coordinator) dispatch(ctx context.Context, w *remoteWorker, p *pendingTrial, tr runner.Trial, attempt int, payload json.RawMessage) dispatchOutcome {
	start := time.Now()
	if err := w.out.write(newAssign(tr, attempt, payload)); err != nil {
		// The connection is already broken; let the read loop's death
		// path fan out the loss (it will signal p.ch), but make sure the
		// worker goes down even if the reader is slow to notice.
		w.conn.Close()
	}
	select {
	case out := <-p.ch:
		if out.res != nil && c.Metrics != nil {
			c.Metrics.Histogram("dist.assign_rtt_us").ObserveDuration(time.Since(start))
		}
		return out
	case <-ctx.Done():
		c.releasePending(w, tr.Key, p)
		return dispatchOutcome{lost: ctx.Err()}
	}
}

// releasePending abandons a dispatched trial on cancellation so a late
// result is discarded instead of leaking.
func (c *Coordinator) releasePending(w *remoteWorker, key string, p *pendingTrial) {
	c.mu.Lock()
	if cur, ok := w.inflight[key]; ok && cur == p {
		delete(w.inflight, key)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// acceptLoop admits worker connections until the listener closes.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal accept error
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serveConn(conn)
		}()
	}
}

// serveConn owns one worker connection: handshake, register, read loop,
// and the death/drain bookkeeping when it ends.
func (c *Coordinator) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := readMsg(conn)
	if err != nil || m.Type != msgHello || m.Hello == nil {
		return // not a worker; drop silently
	}
	h := *m.Hello
	out := &msgWriter{w: conn}
	if bye := checkHello(h); bye != nil {
		_ = out.write(wireMsg{Type: msgBye, Bye: bye})
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if h.Slots <= 0 {
		h.Slots = 1
	}
	if h.Name == "" {
		h.Name = conn.RemoteAddr().String()
	}
	if c.AuthToken != "" && !verifyHello(c.AuthToken, h) {
		c.authFailures.Add(1)
		c.logf("dist: rejecting %s from %s: %v", h.Name, conn.RemoteAddr(), ErrAuthFailed)
		_ = out.write(wireMsg{Type: msgBye, Bye: &byeMsg{Code: byeAuthFailed,
			Reason: "hello MAC missing or does not match the coordinator's auth token"}})
		return
	}
	if len(c.Allowed) > 0 && !admitted(c.Allowed, h.Name, conn.RemoteAddr().String()) {
		c.authFailures.Add(1)
		c.logf("dist: rejecting %s from %s: not on the workers allowlist", h.Name, conn.RemoteAddr())
		_ = out.write(wireMsg{Type: msgBye, Bye: &byeMsg{Code: byeNotAllowed,
			Reason: fmt.Sprintf("worker %q is not on the coordinator's allowlist", h.Name)}})
		return
	}
	w := &remoteWorker{
		name:     h.Name,
		addr:     conn.RemoteAddr().String(),
		slots:    h.Slots,
		conn:     conn,
		out:      out,
		inflight: make(map[string]*pendingTrial),
	}
	w.lastBeat.Store(time.Now().UnixNano())

	c.mu.Lock()
	c.init()
	if c.closed {
		c.mu.Unlock()
		_ = out.write(wireMsg{Type: msgBye, Bye: &byeMsg{Code: byeComplete, Reason: "campaign complete"}})
		return
	}
	c.workers[w] = struct{}{}
	c.joins.Add(1)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.logf("dist: worker %s joined from %s (%d slots)", w.name, w.addr, w.slots)
	defer c.dropWorker(w)

	for {
		m, err := readMsg(conn)
		if err != nil {
			if isCorruptFrame(err) {
				// Garbage bytes on an admitted worker connection: a worker
				// fault, not a campaign problem. Drop just this worker; its
				// trials re-dispatch.
				c.corruptFrames.Add(1)
				c.logf("dist: worker %s sent a corrupt frame (%v); dropping it", w.name, err)
				c.mu.Lock()
				if w.dead == nil {
					w.dead = fmt.Errorf("%w: corrupt frame: %v", ErrWorkerLost, err)
				}
				c.mu.Unlock()
			}
			return
		}
		w.lastBeat.Store(time.Now().UnixNano())
		switch m.Type {
		case msgBeat:
			// Liveness, plus the worker's metric snapshot. Cached by name,
			// not connection, so a departed worker's final numbers stay in
			// the fleet aggregate for the campaign.
			if m.Beat != nil {
				c.mu.Lock()
				c.beatCache[w.name] = m.Beat
				c.mu.Unlock()
			}
		case msgResult:
			if m.Result != nil {
				c.routeResult(w, m.Result)
			}
		case msgDrain:
			keys := []string(nil)
			if m.Drain != nil {
				keys = m.Drain.Keys
			}
			c.workerDraining(w, keys)
		}
	}
}

// routeResult delivers a worker's result to the dispatch waiting on it.
func (c *Coordinator) routeResult(w *remoteWorker, res *resultMsg) {
	c.mu.Lock()
	p, ok := w.inflight[res.Key]
	if ok {
		delete(w.inflight, res.Key)
		w.done++
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	if !ok {
		c.resultsLate.Add(1) // cancelled or re-dispatched already
		return
	}
	p.ch <- dispatchOutcome{res: res}
}

// workerDraining marks a worker as departing cleanly: no new
// assignments, and any handed-back keys re-dispatch without charging the
// abandonment cap. Trials the worker kept will still produce results
// before its connection closes.
func (c *Coordinator) workerDraining(w *remoteWorker, returned []string) {
	c.mu.Lock()
	first := !w.draining
	w.draining = true
	var handback []*pendingTrial
	for _, key := range returned {
		if p, ok := w.inflight[key]; ok {
			delete(w.inflight, key)
			handback = append(handback, p)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if first {
		c.drains.Add(1)
		c.logf("dist: worker %s draining (%d assignments handed back)", w.name, len(returned))
	}
	for _, p := range handback {
		p.ch <- dispatchOutcome{lost: errWorkerDrained, requeue: true}
	}
}

// dropWorker removes a departed worker, fanning the loss out to every
// trial it still held. A drained worker with nothing in flight is a
// clean departure; everything else is a death.
func (c *Coordinator) dropWorker(w *remoteWorker) {
	now := time.Now()
	c.mu.Lock()
	if _, ok := c.workers[w]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.workers, w)
	reason := w.dead
	clean := w.draining && len(w.inflight) == 0 && reason == nil
	if reason == nil {
		reason = ErrWorkerLost
	}
	orphans := make([]*pendingTrial, 0, len(w.inflight))
	for key := range w.inflight {
		orphans = append(orphans, w.inflight[key])
		delete(w.inflight, key)
	}
	c.mu.Unlock()

	if clean {
		c.logf("dist: worker %s drained cleanly (%d trials done)", w.name, w.done)
	} else if !c.isClosed() {
		c.deaths.Add(1)
		c.logf("dist: worker %s lost: %v (%d trials re-dispatching)", w.name, reason, len(orphans))
	}

	state := "dead"
	if clean {
		state = "drained"
	}
	c.mu.Lock()
	c.gone = append(c.gone, WorkerStat{
		Name: w.name, Addr: w.addr, State: state, Slots: w.slots,
		Done: w.done, HeartbeatAge: now.Sub(time.Unix(0, w.lastBeat.Load())),
	})
	if len(c.gone) > 32 {
		c.gone = c.gone[len(c.gone)-32:]
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	for _, p := range orphans {
		p.ch <- dispatchOutcome{lost: reason}
	}
}

// isCorruptFrame distinguishes garbage bytes (oversize length, checksum
// failure, non-JSON body) from an ordinary broken connection, which also
// surfaces as a read error but carries no evidence of corruption.
func isCorruptFrame(err error) bool {
	return errors.Is(err, frame.ErrOversize) ||
		errors.Is(err, frame.ErrChecksum) ||
		errors.Is(err, frame.ErrBadJSON)
}

// admitted reports whether a worker matches the allowlist: by hello name,
// full remote address, or remote host.
func admitted(allowed []string, name, addr string) bool {
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	for _, a := range allowed {
		if a == name || a == addr || a == host {
			return true
		}
		if h, _, err := net.SplitHostPort(a); err == nil && h == host {
			return true
		}
	}
	return false
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// reapLoop is the wall-clock supervisor: workers whose frames (beats or
// results) stop arriving for longer than the stall budget are declared
// dead, which closes their connection and re-dispatches their trials. It
// runs on the real clock on purpose — a partitioned worker never sends
// anything, so only wall time can free its trials.
func (c *Coordinator) reapLoop() {
	defer c.wg.Done()
	timeout := c.heartbeatTimeout()
	period := timeout / 4
	if period < 25*time.Millisecond {
		period = 25 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			var stalled []*remoteWorker
			c.mu.Lock()
			for w := range c.workers {
				if w.dead == nil && now.Sub(time.Unix(0, w.lastBeat.Load())) > timeout {
					w.dead = fmt.Errorf("%w: silent for over %v", ErrWorkerStalled, timeout)
					stalled = append(stalled, w)
				}
			}
			c.mu.Unlock()
			for _, w := range stalled {
				c.logf("dist: reaping worker %s (heartbeats stalled)", w.name)
				w.conn.Close() // unblocks serveConn, whose dropWorker fans out the loss
			}
		}
	}
}
