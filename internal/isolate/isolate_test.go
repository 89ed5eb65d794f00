package isolate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/runner"
)

// TestMain doubles as the trial child: the Executor re-execs this test
// binary with ChildEnvMarker set, and this hook routes the child into
// ChildMain with a scriptable exec before any test runs.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnvMarker) == "1" {
		os.Exit(ChildMain(os.Args, os.Stdin, os.Stdout, testChildRun))
	}
	os.Exit(m.Run())
}

// childScript is the test payload: mode selects the child's behaviour.
type childScript struct {
	Mode string `json:"mode"`
	Val  uint64 `json:"val,omitempty"`
}

// testChildRun interprets a childScript — the scriptable stand-in for the
// real conformance pipeline.
func testChildRun(ctx context.Context, key string, seed uint64, payload json.RawMessage) (json.RawMessage, error) {
	var sc childScript
	if err := json.Unmarshal(payload, &sc); err != nil {
		return nil, err
	}
	switch sc.Mode {
	case "ok":
		return json.Marshal(map[string]uint64{"echo": sc.Val * 3})
	case "error":
		return nil, errors.New("scripted trial error")
	case "deadline":
		return nil, fmt.Errorf("scripted wedge: %w", faults.ErrDeadline)
	case "panic":
		panic("scripted child panic")
	case "crash":
		os.Exit(2)
	case "sigterm": // die by a signal the parent never sends
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		time.Sleep(10 * time.Second)
	case "sigkill": // simulate the kernel OOM-killer's unsolicited SIGKILL
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		time.Sleep(10 * time.Second)
	case "garbage": // non-protocol bytes on stdout, then a clean exit
		fmt.Print("this is not a frame")
		os.Exit(0)
	case "sleep":
		time.Sleep(time.Duration(sc.Val) * time.Millisecond)
		return json.Marshal(map[string]string{"slept": "yes"})
	case "memhog":
		memHog()
	}
	return nil, fmt.Errorf("unknown mode %q", sc.Mode)
}

// testExecutor builds an Executor that re-execs this test binary with
// tight supervision intervals, and registers cleanup.
func testExecutor(t *testing.T) *Executor {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	e := &Executor{
		// -test.run=^$ keeps an accidental non-child exec from running
		// the whole suite recursively; the child path exits in TestMain
		// before flags are ever parsed.
		Cmd:               []string{exe, "-test.run=^$"},
		HeartbeatInterval: 25 * time.Millisecond,
		StallTimeout:      500 * time.Millisecond,
	}
	t.Cleanup(e.Close)
	return e
}

func scriptTrial(key string, mode string, val uint64) runner.Trial {
	return runner.Trial{
		Key:  key,
		Seed: val,
		Spec: childScript{Mode: mode, Val: val},
		Run: func(context.Context) (any, error) {
			return map[string]uint64{"inproc": val}, nil
		},
	}
}

func TestChildRoundTrip(t *testing.T) {
	e := testExecutor(t)
	raw, terr := e.ExecuteTrial(context.Background(), scriptTrial("rt", "ok", 7), 1)
	if terr != nil {
		t.Fatalf("ExecuteTrial: %v", terr)
	}
	var got map[string]uint64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad result %q: %v", raw, err)
	}
	if got["echo"] != 21 {
		t.Errorf("echo = %d, want 21", got["echo"])
	}
}

// TestChildErrorKinds: failures the child can report itself come back with
// the same FailKind the in-process executor would have assigned.
func TestChildErrorKinds(t *testing.T) {
	e := testExecutor(t)
	cases := []struct {
		mode string
		kind runner.FailKind
		sub  string
	}{
		{"error", runner.FailError, "scripted trial error"},
		{"deadline", runner.FailTimeout, "scripted wedge"},
		{"panic", runner.FailPanic, "scripted child panic"},
	}
	for _, tc := range cases {
		_, terr := e.ExecuteTrial(context.Background(), scriptTrial("k-"+tc.mode, tc.mode, 1), 1)
		if terr == nil {
			t.Fatalf("mode %s: no error", tc.mode)
		}
		if terr.Kind != tc.kind {
			t.Errorf("mode %s: kind = %s, want %s (%v)", tc.mode, terr.Kind, tc.kind, terr)
		}
		if !strings.Contains(terr.Err.Error(), tc.sub) {
			t.Errorf("mode %s: error %q lost the child's message %q", tc.mode, terr.Err, tc.sub)
		}
	}
}

func TestChildCrashClassified(t *testing.T) {
	e := testExecutor(t)
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("crash", "crash", 1), 1)
	if terr == nil {
		t.Fatal("hard crash produced no error")
	}
	if !errors.Is(terr, ErrChildExit) {
		t.Errorf("crash not classified as ErrChildExit: %v", terr)
	}
	if terr.Kind != runner.FailError {
		t.Errorf("crash kind = %s, want error", terr.Kind)
	}
}

func TestChildSignalClassified(t *testing.T) {
	e := testExecutor(t)
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("sig", "sigterm", 1), 1)
	if terr == nil || !errors.Is(terr, ErrChildSignal) {
		t.Errorf("signal death not classified as ErrChildSignal: %v", terr)
	}
}

func TestUnsolicitedSigkillClassifiedOOM(t *testing.T) {
	e := testExecutor(t)
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("oomk", "sigkill", 1), 1)
	if terr == nil || !errors.Is(terr, ErrChildOOM) {
		t.Errorf("unsolicited SIGKILL not classified as ErrChildOOM: %v", terr)
	}
}

func TestCorruptOutputClassified(t *testing.T) {
	e := testExecutor(t)
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("garb", "garbage", 1), 1)
	if terr == nil || !errors.Is(terr, ErrCorruptOutput) {
		t.Errorf("garbage stdout not classified as ErrCorruptOutput: %v", terr)
	}
}

// TestWedgeReaped: a child wedged via the QUICBENCH_TEST_WEDGE hook never
// heartbeats; the reaper must SIGKILL it and classify a timeout
// (faults.ErrDeadline), which the runner retries.
func TestWedgeReaped(t *testing.T) {
	t.Setenv(faults.EnvWedge, "wedge-me")
	e := testExecutor(t)
	start := time.Now()
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("wedge-me", "ok", 1), 1)
	if terr == nil {
		t.Fatal("wedged child produced no error")
	}
	if !errors.Is(terr, ErrHeartbeatStall) || !errors.Is(terr, faults.ErrDeadline) {
		t.Errorf("wedge not classified as heartbeat-stall timeout: %v", terr)
	}
	if terr.Kind != runner.FailTimeout {
		t.Errorf("wedge kind = %s, want timeout", terr.Kind)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("reap took %v; the reaper should fire shortly after the 500ms stall", elapsed)
	}
}

// TestWedgedSweepCompletes runs the wedge through the full supervisor: the
// child is SIGKILLed, classified as timeout, retried up to the budget, and
// the sweep completes with a failed-outcome record while a healthy
// neighbour cell still succeeds.
func TestWedgedSweepCompletes(t *testing.T) {
	t.Setenv(faults.EnvWedge, "wedge-me")
	e := testExecutor(t)
	res, err := runner.Run(context.Background(),
		runner.Config{MaxAttempts: 2, Executor: e, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		[]runner.Trial{scriptTrial("wedge-me", "ok", 1), scriptTrial("healthy", "ok", 2)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wedged, healthy := res.Records[0], res.Records[1]
	if wedged.Outcome != runner.OutcomeFailed {
		t.Errorf("wedged outcome = %s, want failed", wedged.Outcome)
	}
	if wedged.Attempts != 2 {
		t.Errorf("wedged attempts = %d, want the full budget of 2", wedged.Attempts)
	}
	if !strings.Contains(wedged.Err, "timeout") || !strings.Contains(wedged.Err, "heartbeat") {
		t.Errorf("wedged record err %q does not describe a heartbeat timeout", wedged.Err)
	}
	if healthy.Outcome != runner.OutcomeOK {
		t.Errorf("healthy outcome = %s, want ok (err %s)", healthy.Outcome, healthy.Err)
	}
}

// TestWallDeadlineReaped: a child that heartbeats happily but overruns the
// wall-clock budget is killed and classified as a timeout.
func TestWallDeadlineReaped(t *testing.T) {
	e := testExecutor(t)
	e.WallDeadline = 300 * time.Millisecond
	e.StallTimeout = 10 * time.Second // heartbeats flow; only the deadline can fire
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("over", "sleep", 5000), 1)
	if terr == nil {
		t.Fatal("overrunning child produced no error")
	}
	if !errors.Is(terr, ErrWallDeadline) || terr.Kind != runner.FailTimeout {
		t.Errorf("overrun not classified as wall-deadline timeout: %v", terr)
	}
}

// TestMemBlowoutContained: a trial allocating without bound under a soft
// ceiling is killed by the child's self-check and classified as OOM.
func TestMemBlowoutContained(t *testing.T) {
	t.Setenv(faults.EnvMemHog, "hog")
	e := testExecutor(t)
	e.MemLimitBytes = 64 << 20
	e.StallTimeout = 30 * time.Second // GC thrash must not masquerade as a stall
	_, terr := e.ExecuteTrial(context.Background(), scriptTrial("hog", "ok", 1), 1)
	if terr == nil {
		t.Fatal("memory blowout produced no error")
	}
	if !errors.Is(terr, ErrChildOOM) {
		t.Errorf("memory blowout not classified as ErrChildOOM: %v", terr)
	}
}

// TestCancellationInterrupts: cancelling the sweep context kills the child
// and classifies the attempt as interrupted, which the runner records as
// skipped (re-run on resume), not failed.
func TestCancellationInterrupts(t *testing.T) {
	e := testExecutor(t)
	e.StallTimeout = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	_, terr := e.ExecuteTrial(ctx, scriptTrial("cancel", "sleep", 5000), 1)
	if terr == nil {
		t.Fatal("cancelled child produced no error")
	}
	if terr.Kind != runner.FailInterrupted {
		t.Errorf("cancellation kind = %s, want interrupted (%v)", terr.Kind, terr)
	}
}

// TestSpawnFallsBackInProcess: an unspawnable child degrades to in-process
// execution instead of failing the trial.
func TestSpawnFallsBackInProcess(t *testing.T) {
	var fellBack bool
	e := &Executor{
		Cmd:        []string{"/nonexistent/quicbench-trial-binary"},
		OnFallback: func(key string, err error) { fellBack = true },
	}
	t.Cleanup(e.Close)
	raw, terr := e.ExecuteTrial(context.Background(), scriptTrial("fb", "ok", 9), 1)
	if terr != nil {
		t.Fatalf("fallback failed: %v", terr)
	}
	if !fellBack {
		t.Error("OnFallback not invoked")
	}
	var got map[string]uint64
	if err := json.Unmarshal(raw, &got); err != nil || got["inproc"] != 9 {
		t.Errorf("fallback did not run the in-process trial: %q (%v)", raw, err)
	}
}

// TestNoSpecFallsBackInProcess: a trial without a serializable spec cannot
// cross the process boundary and must run in-process.
func TestNoSpecFallsBackInProcess(t *testing.T) {
	e := testExecutor(t)
	tr := scriptTrial("nospec", "ok", 4)
	tr.Spec = nil
	raw, terr := e.ExecuteTrial(context.Background(), tr, 1)
	if terr != nil {
		t.Fatalf("ExecuteTrial: %v", terr)
	}
	var got map[string]uint64
	if err := json.Unmarshal(raw, &got); err != nil || got["inproc"] != 4 {
		t.Errorf("spec-less trial did not run in-process: %q (%v)", raw, err)
	}
}

// TestExecutorsJournalIdentically runs the same three trials — one that
// succeeds, one that returns an error, one that panics — through the
// in-process executor, the isolate executor (worker loop on a stdio pipe)
// and a loopback coordinator with one TCP worker (the same loop on a
// socket), and requires byte-identical journals: the shared
// trial-serving loop classifies identically on both transports, and
// identically to the in-process path.
func TestExecutorsJournalIdentically(t *testing.T) {
	mirrored := func(key, mode string, val uint64) runner.Trial {
		tr := scriptTrial(key, mode, val)
		payload, err := json.Marshal(tr.Spec)
		if err != nil {
			t.Fatal(err)
		}
		tr.Run = func(ctx context.Context) (any, error) { return testChildRun(ctx, key, val, payload) }
		return tr
	}
	trials := []runner.Trial{mirrored("t-ok", "ok", 7), mirrored("t-error", "error", 1), mirrored("t-panic", "panic", 1)}

	iso := testExecutor(t)
	iso.OnFallback = func(key string, err error) { t.Errorf("isolate degraded %s to in-process: %v", key, err) }
	coord := &dist.Coordinator{}
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &dist.Worker{Addr: addr, Name: "loopback", Exec: testChildRun, HeartbeatInterval: 25 * time.Millisecond}
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(context.Background()) }()
	defer func() {
		coord.Close() // its bye ends the worker's campaign
		if err := <-workerDone; err != nil {
			t.Errorf("loopback worker: %v", err)
		}
	}()
	if n, ok := coord.WaitWorkers(context.Background(), 1); !ok {
		t.Fatalf("loopback worker never joined (%d connected)", n)
	}

	var ref []byte
	for _, ex := range []struct {
		name string
		ex   runner.TrialExecutor
	}{{"inproc", runner.InProcess{}}, {"isolate", iso}, {"dist", coord}} {
		path := filepath.Join(t.TempDir(), ex.name+".jsonl")
		cfg := runner.Config{MaxAttempts: 2, Executor: ex.ex, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond}
		res, err := runner.RunCheckpointed(context.Background(), cfg, trials, path, false)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		if res.Count(runner.OutcomeOK) != 1 || res.Count(runner.OutcomeFailed) != 2 {
			t.Fatalf("%s: outcomes %+v, want one ok and two failed", ex.name, res.Records)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("%s journal differs from the in-process journal:\nwant %s\ngot  %s", ex.name, ref, got)
		}
	}
	if st := coord.Stats(); st.RemoteTrials != 5 || st.LocalTrials != 0 {
		t.Errorf("dist leg ran %d remote / %d local attempts, want 5 / 0", st.RemoteTrials, st.LocalTrials)
	}
}
