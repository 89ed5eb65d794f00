// Package isolate executes supervised trials in crash-isolated child
// processes. The parent side (Executor) implements runner.TrialExecutor:
// each attempt spawns a hidden child mode of the same binary
// (`quicbench _trial`) — a one-slot fabric worker on stdin/stdout
// (dist.Worker.Serve) — and drives it through the fabric's own
// hello/assign/beat/result exchange (dist.Exchange), digest checks
// included. The child heartbeats while it works; a parent-side wall-clock
// reaper SIGKILLs children whose heartbeats stall or that exceed a
// wall-clock deadline, and every way a child can die — reaped, signalled,
// OOM-killed, nonzero exit, corrupt output — is classified back into the
// runner's typed TrialError kinds, where the existing bounded retry with
// deterministic seeded backoff handles the respawn. Isolation degrades
// gracefully: a trial that cannot be isolated (no serializable spec, spawn
// failure) falls back to the in-process executor instead of failing.
//
// What this package owns is the process: spawn, the reaper with its
// startup grace, exit-status classification, the soft memory ceiling's
// self-check, the fallback. The conversation on the pipe is dist's.
package isolate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/runner"
)

// Typed child-death classifications. Reaper kills additionally match
// faults.ErrDeadline, so runner.Classify lands them in FailTimeout and
// the supervisor's deterministic seeded backoff schedules the respawn.
var (
	// ErrSpawn marks a child that could not be started at all; the
	// executor falls back to in-process execution instead of failing.
	ErrSpawn = errors.New("isolate: spawn trial child")
	// ErrHeartbeatStall marks a child SIGKILLed by the reaper after going
	// silent — wedged hard enough that even its heartbeat goroutine
	// stopped being scheduled.
	ErrHeartbeatStall = errors.New("isolate: child heartbeats stalled")
	// ErrWallDeadline marks a child SIGKILLed by the reaper for
	// overrunning its wall-clock trial deadline.
	ErrWallDeadline = errors.New("isolate: child exceeded the trial wall-clock deadline")
	// ErrChildOOM marks a child that died over memory: its own hard
	// self-check (ExitMemExceeded) or an unsolicited SIGKILL, the kernel
	// OOM-killer's signature.
	ErrChildOOM = errors.New("isolate: child killed over memory")
	// ErrChildSignal marks a child killed by a signal the parent did not
	// send (segfault, abort, external kill).
	ErrChildSignal = errors.New("isolate: child killed by signal")
	// ErrChildExit marks a child that exited nonzero without reporting a
	// result — a hard crash the in-process runner could never survive.
	ErrChildExit = errors.New("isolate: child exited nonzero")
	// ErrCorruptOutput marks a child that exited without producing a valid
	// result frame: a torn or oversized frame, non-protocol bytes on
	// stdout, a result failing its digest check, or a clean exit with no
	// result at all.
	ErrCorruptOutput = errors.New("isolate: corrupt child output")
)

// Executor runs trial attempts in crash-isolated child processes and
// implements runner.TrialExecutor. The zero value is usable; Close stops
// the reaper when the sweep is done.
type Executor struct {
	// Cmd is the child argv. Empty selects the running binary's hidden
	// trial mode: {os.Executable(), "_trial"}. Test binaries rely on
	// ChildEnvMarker (always set) to dispatch instead of the argv. Either
	// way the heartbeat period and memory ceiling are appended as the last
	// two arguments (see ChildMain).
	Cmd []string
	// Env is appended to the inherited environment of every child.
	Env []string
	// HeartbeatInterval is the child's heartbeat period (default 100 ms).
	HeartbeatInterval time.Duration
	// StallTimeout is how long a child may go without a heartbeat before
	// the reaper SIGKILLs it (default 10 s, floored at twice the
	// heartbeat interval).
	StallTimeout time.Duration
	// StartupGrace extends the stall window until the first heartbeat
	// arrives (default 2 s): a freshly exec'd child still loading its
	// binary is slow, not wedged.
	StartupGrace time.Duration
	// WallDeadline, when positive, is the wall-clock budget per attempt,
	// measured from spawn; the reaper SIGKILLs overrunning children.
	WallDeadline time.Duration
	// MemLimitBytes, when positive, is each child's soft heap ceiling.
	MemLimitBytes int64
	// Fallback executes attempts that cannot be isolated — a trial
	// without a serializable Spec, or a spawn failure. Nil selects
	// runner.InProcess. Degradation is graceful by design: isolation
	// trouble must never turn a runnable trial into a hard error.
	Fallback runner.TrialExecutor
	// OnFallback, when non-nil, observes each degradation (serialized by
	// nothing — it must be safe for concurrent use).
	OnFallback func(key string, err error)

	reapOnce sync.Once
	reap     *reaper
}

// ExecuteTrial implements runner.TrialExecutor.
func (e *Executor) ExecuteTrial(ctx context.Context, tr runner.Trial, attempt int) (json.RawMessage, *runner.TrialError) {
	if tr.Spec == nil {
		return e.fallback(ctx, tr, attempt, errors.New("trial has no serializable spec"))
	}
	payload, err := json.Marshal(tr.Spec)
	if err != nil {
		return e.fallback(ctx, tr, attempt, fmt.Errorf("marshal trial spec: %w", err))
	}
	raw, terr, err := e.runChild(ctx, tr, attempt, payload)
	switch {
	case errors.Is(err, ErrSpawn):
		return e.fallback(ctx, tr, attempt, err)
	case err != nil:
		return nil, &runner.TrialError{Key: tr.Key, Attempt: attempt, Kind: runner.Classify(err), Err: err}
	default:
		return raw, terr
	}
}

// fallback degrades to the in-process executor.
func (e *Executor) fallback(ctx context.Context, tr runner.Trial, attempt int, cause error) (json.RawMessage, *runner.TrialError) {
	if e.OnFallback != nil {
		e.OnFallback(tr.Key, cause)
	}
	fb := e.Fallback
	if fb == nil {
		fb = runner.InProcess{}
	}
	return fb.ExecuteTrial(ctx, tr, attempt)
}

// ChildStat is one live child's supervision snapshot, for progress
// displays: how stale its heartbeat is and how long it has run.
type ChildStat struct {
	Key          string
	Attempt      int
	HeartbeatAge time.Duration
	Runtime      time.Duration
}

// LiveChildren snapshots the currently supervised child processes, sorted
// by trial key. Safe for concurrent use; intended for progress reporting.
func (e *Executor) LiveChildren() []ChildStat {
	r := e.reaper()
	now := time.Now()
	r.mu.Lock()
	out := make([]ChildStat, 0, len(r.kids))
	for c := range r.kids {
		out = append(out, ChildStat{
			Key:          c.key,
			Attempt:      c.attempt,
			HeartbeatAge: now.Sub(time.Unix(0, c.lastBeat.Load())),
			Runtime:      now.Sub(c.start),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Close stops the reaper. Children in flight are unaffected (each
// ExecuteTrial owns its child's lifetime); call it once the sweep is done.
func (e *Executor) Close() {
	if e.reap != nil {
		e.reap.close()
	}
}

func (e *Executor) heartbeatInterval() time.Duration {
	if e.HeartbeatInterval > 0 {
		return e.HeartbeatInterval
	}
	return 100 * time.Millisecond
}

func (e *Executor) stallTimeout() time.Duration {
	st := e.StallTimeout
	if st <= 0 {
		st = 10 * time.Second
	}
	if min := 2 * e.heartbeatInterval(); st < min {
		st = min
	}
	return st
}

func (e *Executor) startupGrace() time.Duration {
	if e.StartupGrace > 0 {
		return e.StartupGrace
	}
	return 2 * time.Second
}

// runChild executes one attempt in a child process: spawn, run the
// fabric exchange on its pipes, wait, classify. A non-nil error means the
// child produced no valid result; otherwise the result (or the failure the
// child itself classified) comes back as the executor contract wants it.
func (e *Executor) runChild(ctx context.Context, tr runner.Trial, attempt int, payload json.RawMessage) (json.RawMessage, *runner.TrialError, error) {
	argv := e.Cmd
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: resolve executable: %v", ErrSpawn, err)
		}
		argv = []string{exe, "_trial"}
	}
	// Capped slice: the append must copy, never write into e.Cmd's backing
	// array, which concurrent attempts share.
	args := append(argv[1:len(argv):len(argv)], childArgs(e.heartbeatInterval(), e.MemLimitBytes)...)
	cmd := exec.Command(argv[0], args...)
	cmd.Env = append(append(os.Environ(), ChildEnvMarker+"=1"), e.Env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: stdin pipe: %v", ErrSpawn, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: stdout pipe: %v", ErrSpawn, err)
	}
	stderr := &capBuffer{max: 8 << 10}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSpawn, err)
	}

	// Register with the wall-clock reaper before the child does any work,
	// so a child that wedges instantly is still supervised.
	c := &child{
		key:      tr.Key,
		attempt:  attempt,
		proc:     cmd.Process,
		start:    time.Now(),
		stall:    e.stallTimeout(),
		grace:    e.startupGrace(),
		deadline: e.WallDeadline,
	}
	c.lastBeat.Store(c.start.UnixNano())
	e.reaper().register(c)
	defer e.reaper().unregister(c)

	// Cancellation kills the child; the watcher is released on return.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			c.kill(fmt.Errorf("isolate: child killed on cancellation: %w", ctx.Err()))
		case <-watchDone:
		}
	}()

	// The exchange returns on the result, EOF (child died), or garbage. A
	// reaper kill closes the pipe and unblocks it.
	pipe := struct {
		io.Reader
		io.Writer
	}{stdout, stdin}
	raw, terr, xerr := dist.Exchange(pipe, tr, attempt, payload, func() {
		c.beaten.Store(true)
		c.lastBeat.Store(time.Now().UnixNano())
	})
	_ = stdin.Close()
	waitErr := cmd.Wait()

	// A result frame is authoritative: the trial completed before
	// whatever happened at exit.
	if xerr == nil {
		return raw, terr, nil
	}
	if reason := c.killReason(); reason != nil {
		return nil, nil, reason
	}
	if waitErr != nil {
		var ee *exec.ExitError
		if errors.As(waitErr, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				if ws.Signal() == syscall.SIGKILL {
					return nil, nil, fmt.Errorf("%w: unsolicited SIGKILL (kernel OOM-kill signature)%s",
						ErrChildOOM, stderr.suffix())
				}
				return nil, nil, fmt.Errorf("%w: %v%s", ErrChildSignal, ws.Signal(), stderr.suffix())
			}
			if ee.ExitCode() == ExitMemExceeded {
				return nil, nil, fmt.Errorf("%w: soft ceiling %d B exceeded%s",
					ErrChildOOM, e.MemLimitBytes, stderr.suffix())
			}
			return nil, nil, fmt.Errorf("%w: exit %d%s", ErrChildExit, ee.ExitCode(), stderr.suffix())
		}
		return nil, nil, fmt.Errorf("%w: wait: %v", ErrChildExit, waitErr)
	}
	if xerr != io.EOF {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptOutput, xerr)
	}
	return nil, nil, fmt.Errorf("%w: child exited cleanly without a result frame", ErrCorruptOutput)
}

// reaper lazily starts the executor's reaper goroutine.
func (e *Executor) reaper() *reaper {
	e.reapOnce.Do(func() {
		e.reap = newReaper()
	})
	return e.reap
}

// child is one live supervised process, as the reaper sees it.
type child struct {
	key      string
	attempt  int
	proc     *os.Process
	start    time.Time
	stall    time.Duration
	grace    time.Duration
	deadline time.Duration
	lastBeat atomic.Int64 // unix nanos of the most recent heartbeat
	beaten   atomic.Bool  // true once any heartbeat has arrived

	mu      sync.Mutex
	killErr error // why the parent killed it; nil if it died on its own
}

// kill SIGKILLs the child, recording the first reason. Duplicate kills
// (reaper vs. cancellation race) keep the original classification.
func (c *child) kill(reason error) {
	c.mu.Lock()
	if c.killErr == nil {
		c.killErr = reason
	}
	c.mu.Unlock()
	_ = c.proc.Kill()
}

func (c *child) killReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killErr
}

// reaper is the parent's wall-clock supervisor: a single goroutine that
// scans live children and SIGKILLs any whose heartbeats stalled or whose
// wall deadline passed. It runs on the real clock on purpose — a wedged
// child never advances any virtual clock, so only wall time can free its
// worker slot.
type reaper struct {
	mu   sync.Mutex
	kids map[*child]struct{}
	stop chan struct{}
	done chan struct{}
}

func newReaper() *reaper {
	r := &reaper{
		kids: make(map[*child]struct{}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.run()
	return r
}

func (r *reaper) register(c *child) {
	r.mu.Lock()
	r.kids[c] = struct{}{}
	r.mu.Unlock()
}

func (r *reaper) unregister(c *child) {
	r.mu.Lock()
	delete(r.kids, c)
	r.mu.Unlock()
}

func (r *reaper) close() {
	select {
	case <-r.stop:
		return // already closed
	default:
	}
	close(r.stop)
	<-r.done
}

func (r *reaper) run() {
	defer close(r.done)
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.sweep(now)
		}
	}
}

// sweep kills every overdue child. Error texts name the configured
// limits, not measured elapsed time, so journaled failure records stay
// deterministic run-to-run.
func (r *reaper) sweep(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.kids {
		beat := time.Unix(0, c.lastBeat.Load())
		// Until the first heartbeat, the stall window includes the
		// startup grace: a child still paging in its binary (or a -race
		// build initializing) is slow, not wedged.
		stall := c.stall
		if !c.beaten.Load() {
			stall += c.grace
		}
		switch {
		case stall > 0 && now.Sub(beat) > stall:
			c.kill(fmt.Errorf("%w: no heartbeat within %v: %w", ErrHeartbeatStall, c.stall, faults.ErrDeadline))
		case c.deadline > 0 && now.Sub(c.start) > c.deadline:
			c.kill(fmt.Errorf("%w: %v budget: %w", ErrWallDeadline, c.deadline, faults.ErrDeadline))
		}
	}
}

// capBuffer retains the first max bytes written — enough stderr for a
// crash diagnosis without letting a looping child eat parent memory.
type capBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (b *capBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	if room := b.max - len(b.buf); room > 0 {
		if len(p) > room {
			p = p[:room]
		}
		b.buf = append(b.buf, p...)
	}
	b.mu.Unlock()
	return len(p), nil
}

// suffix renders the captured stderr as an error suffix ("; stderr: ..."),
// or nothing when the child was silent.
func (b *capBuffer) suffix() string {
	b.mu.Lock()
	s := strings.TrimSpace(string(b.buf))
	b.mu.Unlock()
	if s == "" {
		return ""
	}
	if len(s) > 300 {
		s = s[:300] + "..."
	}
	return "; stderr: " + strings.ReplaceAll(s, "\n", " | ")
}
