package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// fakeResult is a deterministic trial payload: a pure function of the
// trial's identity, like every real trial result.
type fakeResult struct {
	Key  string `json:"key"`
	Seed uint64 `json:"seed"`
	Val  uint64 `json:"val"`
}

func result(key string, seed uint64) fakeResult {
	return fakeResult{Key: key, Seed: seed, Val: seed*6364136223846793005 + 1442695040888963407}
}

func okTrial(key string, seed uint64) Trial {
	return Trial{Key: key, Seed: seed, Run: func(context.Context) (any, error) {
		return result(key, seed), nil
	}}
}

// panickyTrial panics on the first `failures` attempts, then succeeds —
// deterministic per attempt, so a resumed re-execution replays it exactly.
func panickyTrial(key string, seed uint64, failures int) Trial {
	attempt := 0
	return Trial{Key: key, Seed: seed, Run: func(context.Context) (any, error) {
		attempt++
		if attempt <= failures {
			panic(fmt.Sprintf("injected panic in %s", key))
		}
		return result(key, seed), nil
	}}
}

// timeoutTrial fails with the watchdog's deadline error on the first
// `failures` attempts, then succeeds.
func timeoutTrial(key string, seed uint64, failures int) Trial {
	attempt := 0
	return Trial{Key: key, Seed: seed, Run: func(context.Context) (any, error) {
		attempt++
		if attempt <= failures {
			return nil, fmt.Errorf("trial wedged: %w", faults.ErrDeadline)
		}
		return result(key, seed), nil
	}}
}

func failingTrial(key string, seed uint64) Trial {
	return Trial{Key: key, Seed: seed, Run: func(context.Context) (any, error) {
		return nil, errors.New("injected failure")
	}}
}

// noSleep removes real backoff delays from tests.
func noSleep(context.Context, time.Duration) error { return nil }

func TestPanicIsolation(t *testing.T) {
	// A trial that panics on every attempt must yield a typed failed
	// record — never a process crash.
	res, err := Run(context.Background(),
		Config{MaxAttempts: 3, sleep: noSleep},
		[]Trial{panickyTrial("p", 1, 99), okTrial("q", 2)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec := res.Records[0]
	if rec.Outcome != OutcomeFailed || rec.Attempts != 3 {
		t.Fatalf("panicking trial: outcome %s attempts %d, want failed/3", rec.Outcome, rec.Attempts)
	}
	if !strings.Contains(rec.Err, string(FailPanic)) || !strings.Contains(rec.Err, "injected panic") {
		t.Errorf("record error %q does not describe the panic", rec.Err)
	}
	if res.Records[1].Outcome != OutcomeOK {
		t.Errorf("healthy neighbour trial: outcome %s, want ok", res.Records[1].Outcome)
	}
}

func TestRetryAfterPanicAndTimeout(t *testing.T) {
	res, err := Run(context.Background(),
		Config{MaxAttempts: 3, sleep: noSleep},
		[]Trial{panickyTrial("p", 1, 1), timeoutTrial("t", 2, 2)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, want := range []int{2, 3} {
		rec := res.Records[i]
		if rec.Outcome != OutcomeRetried || rec.Attempts != want {
			t.Errorf("trial %s: outcome %s attempts %d, want retried/%d", rec.Key, rec.Outcome, rec.Attempts, want)
		}
		if rec.Err != "" {
			t.Errorf("trial %s recovered but kept error %q", rec.Key, rec.Err)
		}
	}
}

func TestTrialErrorClassification(t *testing.T) {
	if k := Classify(fmt.Errorf("x: %w", faults.ErrDeadline)); k != FailTimeout {
		t.Errorf("deadline classified %s, want timeout", k)
	}
	if k := Classify(fmt.Errorf("x: %w", faults.ErrInterrupted)); k != FailInterrupted {
		t.Errorf("interrupt classified %s, want interrupted", k)
	}
	if k := Classify(context.Canceled); k != FailInterrupted {
		t.Errorf("context.Canceled classified %s, want interrupted", k)
	}
	if k := Classify(errors.New("boom")); k != FailError {
		t.Errorf("plain error classified %s, want error", k)
	}
	// TrialError wraps: errors.Is must reach the cause.
	te := &TrialError{Key: "k", Attempt: 1, Kind: FailTimeout,
		Err: fmt.Errorf("w: %w", faults.ErrDeadline)}
	if !errors.Is(te, faults.ErrDeadline) {
		t.Error("errors.Is does not reach through TrialError")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	capture := func() (*[]time.Duration, Config) {
		var ds []time.Duration
		var mu sync.Mutex
		cfg := Config{
			MaxAttempts: 4,
			BackoffBase: 10 * time.Millisecond,
			BackoffCap:  40 * time.Millisecond,
			Seed:        99,
			sleep: func(_ context.Context, d time.Duration) error {
				mu.Lock()
				ds = append(ds, d)
				mu.Unlock()
				return nil
			},
		}
		return &ds, cfg
	}
	run := func() []time.Duration {
		ds, cfg := capture()
		if _, err := Run(context.Background(), cfg, []Trial{panickyTrial("p", 7, 3)}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return *ds
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("expected 3 backoff sleeps, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff schedule not deterministic: %v vs %v", a, b)
		}
	}
	// Attempt n waits base*2^(n-1) (capped at 40ms) jittered to [0.5, 1.5).
	wantBase := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	for i, d := range a {
		lo, hi := wantBase[i]/2, wantBase[i]*3/2
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v outside [%v, %v)", i+1, d, lo, hi)
		}
	}
}

func TestCancellationSkipsAndAbortsInflight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	blocking := Trial{Key: "block", Seed: 1, Run: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // stands in for the engine watchdog observing the context
		return nil, fmt.Errorf("aborted: %w", faults.ErrInterrupted)
	}}
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(ctx, Config{Workers: 2, sleep: noSleep},
		[]Trial{blocking, okTrial("a", 2), okTrial("b", 3)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Interrupted {
		t.Error("Interrupted not set after cancellation")
	}
	if rec := res.Records[0]; rec.Outcome != OutcomeSkipped {
		t.Errorf("in-flight trial recorded %s, want skipped", rec.Outcome)
	}
	for _, rec := range res.Records {
		if rec.Outcome != OutcomeSkipped && rec.Outcome != OutcomeOK {
			t.Errorf("trial %s: outcome %s, want ok or skipped", rec.Key, rec.Outcome)
		}
	}
}

func TestDuplicateAndInvalidTrialsRejected(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, []Trial{okTrial("a", 1), okTrial("a", 2)}); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := Run(context.Background(), Config{}, []Trial{{Key: "", Run: okTrial("x", 1).Run}}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := Run(context.Background(), Config{}, []Trial{{Key: "a"}}); err == nil {
		t.Error("nil Run accepted")
	}
}

// resumeTrials is the mixed workload of the determinism test: healthy
// trials, an injected panic, an injected timeout, and a permanent failure.
func resumeTrials() []Trial {
	return []Trial{
		okTrial("a", 1),
		panickyTrial("b", 2, 1),
		okTrial("c", 3),
		timeoutTrial("d", 4, 1),
		okTrial("e", 5),
		failingTrial("f", 6),
		okTrial("g", 7),
	}
}

// TestResumeBitIdentical is the acceptance test for checkpointed resume: a
// sweep killed mid-way (after an injected panic and an injected timeout
// were already exercised) and resumed from its journal must merge to
// records byte-identical to an uninterrupted run.
func TestResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, MaxAttempts: 3, Seed: 42, sleep: noSleep}

	// Uninterrupted reference run.
	full, err := RunCheckpointed(context.Background(), cfg, resumeTrials(),
		filepath.Join(dir, "full.jsonl"), false)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Interrupted run: cancel after the third completed record.
	path := filepath.Join(dir, "interrupted.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	icfg := cfg
	var n int
	var mu sync.Mutex
	icfg.OnRecord = func(Record) {
		mu.Lock()
		n++
		if n == 3 {
			cancel()
		}
		mu.Unlock()
	}
	part, err := RunCheckpointed(ctx, icfg, resumeTrials(), path, false)
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if !part.Interrupted {
		t.Fatal("interrupted run not marked Interrupted")
	}
	if part.Count(OutcomeSkipped) == 0 {
		t.Fatal("interrupted run skipped nothing; cancel landed too late to test resume")
	}

	// Resume from the journal with fresh trial closures.
	res, err := RunCheckpointed(context.Background(), cfg, resumeTrials(), path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Reused == 0 {
		t.Error("resume re-executed everything; journal replay did not engage")
	}

	want, _ := json.Marshal(full.Records)
	got, _ := json.Marshal(res.Records)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed records differ from uninterrupted run:\nwant %s\ngot  %s", want, got)
	}
	// And the merged journal answers a second resume without any work.
	again, err := RunCheckpointed(context.Background(), cfg, resumeTrials(), path, true)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	// The permanent failure ("f") re-executes every resume; all six
	// completed trials replay from the journal.
	if again.Reused != 6 {
		t.Errorf("second resume reused %d records, want 6", again.Reused)
	}
}

func TestReplayableGuards(t *testing.T) {
	tr := okTrial("a", 1)
	raw, _ := json.Marshal(result("a", 1))
	good := Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1, Hash: hashBytes(raw), Result: raw}
	if !replayable(good, tr) {
		t.Fatal("intact record not replayable")
	}
	bad := good
	bad.Seed = 2
	if replayable(bad, tr) {
		t.Error("record from a different seed replayed")
	}
	bad = good
	bad.Result = json.RawMessage(`{"tampered":true}`)
	if replayable(bad, tr) {
		t.Error("record with mismatched hash replayed")
	}
	bad = good
	bad.Outcome = OutcomeFailed
	if replayable(bad, tr) {
		t.Error("failed record replayed")
	}
	bad = good
	bad.Outcome = OutcomeSkipped
	if replayable(bad, tr) {
		t.Error("skipped record replayed")
	}
}

func TestJournalTruncatedFinalLineTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	raw, _ := json.Marshal(result("a", 1))
	rec := Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1, Hash: hashBytes(raw), Result: raw}
	intact := writtenJournal(t, rec)
	content := append(intact[:len(intact):len(intact)], []byte(`{"key":"b","outcome":"ok","att`)...) // crash mid-append
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	done, info, err := RecoverJournal(path)
	if err != nil || !info.TornTail || info.CorruptSuffix {
		t.Fatalf("RecoverJournal of a truncated final line: info %+v, err %v; want a torn tail", info, err)
	}
	if _, ok := done["a"]; !ok {
		t.Error("intact record lost")
	}
	if _, ok := done["b"]; ok {
		t.Error("truncated record kept")
	}

	// A malformed *interior* line is corruption, not a crash artifact.
	hdr, recLine, _ := strings.Cut(string(intact), "\n")
	content = []byte(hdr + "\n" + `{"key":"a","outcome` + "\n" + recLine)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if done, info, err := RecoverJournal(path); err != nil || !info.CorruptSuffix || info.BadLine != 2 || len(done) != 0 {
		t.Errorf("malformed interior line: %d records, info %+v, err %v; want CorruptSuffix at line 2", len(done), info, err)
	}
}

// TestJournalGolden pins the journal format: one worker, a fixed workload,
// byte-for-byte comparison against testdata/golden.jsonl. If this fails
// because the format changed intentionally, regenerate with
// UPDATE_GOLDEN=1 go test ./internal/runner -run TestJournalGolden
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.jsonl")
	cfg := Config{Workers: 1, MaxAttempts: 2, Seed: 7, sleep: noSleep}
	trials := []Trial{
		okTrial("alpha", 11),
		panickyTrial("bravo", 22, 1),
		failingTrial("charlie", 33),
	}
	if _, err := RunCheckpointed(context.Background(), cfg, trials, path, false); err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal drifted from golden:\nwant %s\ngot  %s", want, got)
	}
}

// TestJournalHeader: a fresh journal starts with the version header, and
// the reader both accepts it and refuses to misread other versions.
func TestJournalHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(result("a", 1))
	rec := Record{Key: "a", Seed: 1, Outcome: OutcomeOK, Attempts: 1, Hash: hashBytes(raw), Result: raw}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := string(bytes.SplitN(data, []byte("\n"), 2)[0])
	if !strings.Contains(first, `"journal":"quicbench-sweep"`) || !strings.Contains(first, `"version":3`) {
		t.Errorf("first line is not the v3 header: %s", first)
	}
	done, info, err := RecoverJournal(path)
	if err != nil || info.CorruptSuffix || info.TornTail {
		t.Fatalf("RecoverJournal rejected its own header: info %+v, err %v", info, err)
	}
	if _, ok := done["a"]; !ok || len(done) != 1 {
		t.Errorf("parsed records = %v, want just %q", done, "a")
	}

	// Reopening in append mode must not write a second header.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	data2, _ := os.ReadFile(path)
	if !bytes.Equal(data, data2) {
		t.Error("append-mode reopen altered the journal")
	}
}

// TestJournalVersionMismatch: a journal from a different format version is
// typed corruption, never silently (mis)parsed.
func TestJournalVersionMismatch(t *testing.T) {
	for _, hdr := range []string{
		`{"journal":"quicbench-sweep","version":99}`,
		`{"journal":"quicbench-sweep","version":1}`,
		`{"journal":"somebody-else","version":2}`,
	} {
		data := []byte(hdr + "\n" + `{"key":"a","outcome":"ok","attempts":1}` + "\n")
		if _, _, err := ParseJournalVerified(data); err == nil {
			t.Errorf("header %s accepted", hdr)
		} else if !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("header %s: untyped error %v", hdr, err)
		}
	}
}

// countingExecutor proves the supervisor routes attempts through the
// configured TrialExecutor seam.
type countingExecutor struct {
	mu    sync.Mutex
	calls int
}

func (c *countingExecutor) ExecuteTrial(ctx context.Context, tr Trial, attempt int) (json.RawMessage, *TrialError) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return InProcess{}.ExecuteTrial(ctx, tr, attempt)
}

func TestExecutorSeam(t *testing.T) {
	ex := &countingExecutor{}
	res, err := Run(context.Background(),
		Config{Executor: ex, sleep: noSleep},
		[]Trial{okTrial("a", 1), okTrial("b", 2)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ex.calls != 2 {
		t.Errorf("executor saw %d attempts, want 2", ex.calls)
	}
	for _, rec := range res.Records {
		if rec.Outcome != OutcomeOK {
			t.Errorf("trial %s outcome = %s, want ok", rec.Key, rec.Outcome)
		}
	}
}
