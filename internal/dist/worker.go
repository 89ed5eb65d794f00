package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// errChaosKilled reports a worker stopped by the crash chaos hook.
var errChaosKilled = errors.New("dist: worker killed by chaos hook")

// ExecFunc executes the domain trial behind an assignment's payload and
// returns the marshalled result. It is the only domain knowledge a
// worker needs; the quicbench facade wires it to core.ExecuteCellSpec —
// on TCP workers and on the crash-isolation child alike — the same code
// path the in-process executor runs, which is what makes results
// bit-identical across executors.
type ExecFunc func(ctx context.Context, key string, seed uint64, payload json.RawMessage) (json.RawMessage, error)

// Worker executes trial assignments for a coordinator. Create one, set
// Addr and Exec, and call Run; it connects (and reconnects, with
// exponential backoff) until the coordinator says bye, the context ends,
// or Drain is called. Serve runs the same loop once over a stream the
// caller already holds.
type Worker struct {
	// Addr is the coordinator's TCP address (Run only).
	Addr string
	// Name identifies the worker in fleet telemetry (default
	// "worker-<pid>").
	Name string
	// Slots is how many assignments run in parallel (default 1).
	Slots int
	// Exec runs one assignment's payload.
	Exec ExecFunc
	// HeartbeatInterval is the liveness beat period (default 1 s). Keep
	// it well under the coordinator's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// ReconnectBase and ReconnectMax bound the exponential dial backoff
	// (defaults 250 ms and 5 s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// Logf, when non-nil, observes connection lifecycle events.
	Logf func(format string, args ...any)
	// AuthToken, when non-empty, authenticates the hello frame with an
	// HMAC over this shared secret; it must match the coordinator's
	// -auth-token or the worker is turned away with ErrAuthFailed.
	AuthToken string
	// Metrics, when non-nil, is the worker's local registry: assignment
	// counters (worker.trials_total, worker.failures_total), the
	// worker.trial_latency_us wall-latency histogram, and the
	// worker.inflight gauge all land here, and its snapshot is
	// piggybacked on every beat frame so the coordinator can aggregate
	// the fleet.
	Metrics *telemetry.Registry
	// ChaosCrash and ChaosBlackhole are key substrings arming the chaos
	// hooks; empty values fall back to the faults.EnvDistCrash/Blackhole
	// hooks.
	ChaosCrash     string
	ChaosBlackhole string

	drainOnce sync.Once
	drainInit sync.Once
	drainCh   chan struct{}
}

// Drain asks the worker to shut down cleanly: finish the assignments in
// flight, flush their results, hand anything unstarted back to the
// coordinator, and return from Run. Safe to call from a signal handler
// goroutine; idempotent.
func (w *Worker) Drain() {
	w.drainOnce.Do(func() { close(w.drain()) })
}

func (w *Worker) drain() chan struct{} {
	w.drainInit.Do(func() { w.drainCh = make(chan struct{}) })
	return w.drainCh
}

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	return fmt.Sprintf("worker-%d", os.Getpid())
}

func (w *Worker) slots() int {
	if w.Slots > 0 {
		return w.Slots
	}
	return 1
}

func (w *Worker) heartbeatInterval() time.Duration {
	if w.HeartbeatInterval > 0 {
		return w.HeartbeatInterval
	}
	return time.Second
}

func (w *Worker) reconnectBase() time.Duration {
	if w.ReconnectBase > 0 {
		return w.ReconnectBase
	}
	return 250 * time.Millisecond
}

func (w *Worker) reconnectMax() time.Duration {
	if w.ReconnectMax > 0 {
		return w.ReconnectMax
	}
	return 5 * time.Second
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) chaos(field, hook string) string {
	if field != "" {
		return field
	}
	return faults.Hook(hook)
}

// Run connects to the coordinator and executes assignments until the
// campaign ends (bye → nil), Drain completes (nil), the context ends
// (ctx.Err()), or a chaos hook kills the worker. Connection loss is not
// an exit: the worker re-dials with exponential backoff, so a restarted
// coordinator (--resume) finds its fleet waiting.
func (w *Worker) Run(ctx context.Context) error {
	if w.Exec == nil {
		return errors.New("dist: worker has no Exec")
	}
	delay := w.reconnectBase()
	for {
		select {
		case <-w.drain():
			return nil
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", w.Addr)
		if err != nil {
			w.logf("dist: dial %s: %v (retrying in %v)", w.Addr, err, delay)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-w.drain():
				return nil
			case <-time.After(delay):
			}
			if delay *= 2; delay > w.reconnectMax() {
				delay = w.reconnectMax()
			}
			continue
		}
		delay = w.reconnectBase()
		done, err := w.session(ctx, conn)
		conn.Close()
		if done {
			return err
		}
		w.logf("dist: connection to %s lost (%v); reconnecting", w.Addr, err)
	}
}

// Serve runs the worker over one stream the caller already holds — the
// crash-isolation child's stdin/stdout — instead of dialing: one session,
// no reconnect. It returns nil once the peer ends the campaign (or Drain
// completes), the typed error of a bye that turned the worker away, or
// whatever ended the stream.
func (w *Worker) Serve(ctx context.Context, conn io.ReadWriteCloser) error {
	_, err := w.session(ctx, conn)
	return err
}

// session runs one connection's lifetime. done reports that the worker
// is finished for good (bye, drain, chaos kill, cancellation); !done
// means the connection was lost and Run should re-dial.
func (w *Worker) session(ctx context.Context, conn io.ReadWriteCloser) (done bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := &msgWriter{w: conn}
	hello := helloMsg{Proto: protoName, Version: protoVersion, Name: w.name(), Slots: w.slots()}
	if w.AuthToken != "" {
		if err := authenticate(w.AuthToken, &hello); err != nil {
			return true, err
		}
	}
	if err := out.write(wireMsg{Type: msgHello, Hello: &hello}); err != nil {
		return false, fmt.Errorf("dist: hello: %w", err)
	}
	beatPayload := func() *beatMsg { return nil }
	if w.Metrics != nil {
		beatPayload = func() *beatMsg {
			return &beatMsg{Samples: w.Metrics.Snapshot(), Hists: w.Metrics.Histograms()}
		}
	}

	var (
		trials   sync.WaitGroup
		draining atomic.Bool
	)
	// Heartbeats keep the coordinator's reaper away while trials run.
	beatStop := make(chan struct{})
	var beats sync.WaitGroup
	beats.Add(1)
	go func() {
		defer beats.Done()
		t := time.NewTicker(w.heartbeatInterval())
		defer t.Stop()
		for {
			select {
			case <-beatStop:
				return
			case <-t.C:
				if err := out.write(wireMsg{Type: msgBeat, Beat: beatPayload()}); err != nil {
					return // connection gone; the read loop will notice
				}
			}
		}
	}()
	defer func() {
		close(beatStop)
		beats.Wait()
	}()

	// The drain watcher: announce the drain, let in-flight trials finish
	// and flush their results, then sever the connection — the read loop
	// unblocks and the session ends cleanly.
	drainDone := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		select {
		case <-drainDone:
		case <-sctx.Done():
		case <-w.drain():
			draining.Store(true)
			_ = out.write(wireMsg{Type: msgDrain, Drain: &drainMsg{}})
			trials.Wait()
			conn.Close()
		}
	}()
	defer func() {
		close(drainDone)
		watcher.Wait()
	}()

	chaosCrash := w.chaos(w.ChaosCrash, faults.EnvDistCrash)
	chaosBlackhole := w.chaos(w.ChaosBlackhole, faults.EnvDistBlackhole)
	for {
		m, rerr := readMsg(conn)
		if rerr != nil {
			if ctx.Err() != nil {
				return true, ctx.Err()
			}
			select {
			case <-w.drain():
				trials.Wait()
				return true, nil // clean drain completed
			default:
			}
			return false, rerr // lost connection: reconnect
		}
		switch m.Type {
		case msgBye:
			trials.Wait()
			if err := byeError(m.Bye); err != nil {
				w.logf("dist: coordinator turned us away: %v (%s)", err, byeReason(m.Bye))
				return true, err
			}
			w.logf("dist: campaign complete (%s)", byeReason(m.Bye))
			return true, nil
		case msgAssign:
			if m.Assign == nil {
				continue
			}
			a := *m.Assign
			if chaosCrash != "" && strings.Contains(a.Key, chaosCrash) {
				// kill -9 stand-in: sever the connection, abandon the
				// fleet, discard everything in flight.
				w.logf("dist: chaos crash on %s", a.Key)
				conn.Close()
				cancel()
				return true, errChaosKilled
			}
			if chaosBlackhole != "" && strings.Contains(a.Key, chaosBlackhole) {
				w.logf("dist: chaos blackhole on %s", a.Key)
				out.blackhole()
			}
			if draining.Load() {
				// Raced with our own drain announcement: hand it back.
				_ = out.write(wireMsg{Type: msgDrain, Drain: &drainMsg{Keys: []string{a.Key}}})
				continue
			}
			trials.Add(1)
			go func() {
				defer trials.Done()
				res := w.runAssignment(sctx, a)
				_ = out.write(wireMsg{Type: msgResult, Result: &res})
				// Chase the result with a fresh snapshot so fleet-summed
				// counters converge with the journal immediately instead of
				// lagging one heartbeat behind.
				if b := beatPayload(); b != nil {
					_ = out.write(wireMsg{Type: msgBeat, Beat: b})
				}
			}()
		}
	}
}

// runAssignment executes one trial with panic recovery, mirroring the
// in-process executor's classification so a panic on a worker journals
// exactly like a panic at home.
func (w *Worker) runAssignment(ctx context.Context, a assignMsg) (out resultMsg) {
	// SpecDigest is recomputed from the payload bytes actually received —
	// not echoed from the assignment — so the coordinator's check proves
	// this result answers the spec it sent.
	out = resultMsg{Key: a.Key, Attempt: a.Attempt, SpecDigest: digestOf(a.Payload)}
	if w.Metrics != nil {
		w.Metrics.Gauge("worker.inflight").Add(1)
		start := time.Now()
		defer func() {
			w.Metrics.Histogram("worker.trial_latency_us").ObserveDuration(time.Since(start))
			w.Metrics.Counter("worker.trials_total").Inc()
			if out.Err != "" {
				w.Metrics.Counter("worker.failures_total").Inc()
			}
			w.Metrics.Gauge("worker.inflight").Add(-1)
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "dist worker: trial %s panicked: %v\n%s", a.Key, r, debug.Stack())
			out.Result = nil
			out.Err = fmt.Sprintf("%v", r)
			out.Kind = string(runner.FailPanic)
		}
	}()
	raw, err := w.Exec(ctx, a.Key, a.Seed, a.Payload)
	if err != nil {
		out.Err = err.Error()
		out.Kind = string(runner.Classify(err))
		return out
	}
	out.Result = raw
	out.ResultDigest = digestOf(raw)
	return out
}

func byeReason(b *byeMsg) string {
	if b == nil || b.Reason == "" {
		return "no reason given"
	}
	return b.Reason
}

// byeError maps a bye's machine-readable code to the typed error a worker
// returns from Run; a campaign-complete (or legacy, code-less) bye is nil.
func byeError(b *byeMsg) error {
	if b == nil {
		return nil
	}
	switch b.Code {
	case byeAuthFailed:
		return ErrAuthFailed
	case byeNotAllowed:
		return fmt.Errorf("%w: not on the coordinator's allowlist", ErrAuthFailed)
	case byeProtoMismatch:
		return fmt.Errorf("%w: %s", ErrProtocol, b.Reason)
	default:
		return nil
	}
}
