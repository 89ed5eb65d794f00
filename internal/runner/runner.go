// Package runner supervises large experiment sweeps: it executes trials on
// a bounded worker pool where every trial runs with panic isolation (a
// panic becomes a typed TrialError instead of a process crash), bounded
// retry with deterministic exponential backoff, and graceful cancellation
// (a cancelled context stops dispatch, aborts in-flight trials through the
// virtual-clock watchdog, and flushes the checkpoint journal).
//
// Completed trials are appended to a JSONL checkpoint journal (see
// journal.go); Resume replays the journal and re-executes only missing,
// failed, or skipped trials, so an interrupted sweep merged with its resume
// is bit-identical to an uninterrupted run — every trial is a pure function
// of its seed, and the runner never lets scheduling nondeterminism leak
// into results (records are merged in trial order, not completion order).
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/stats"
)

// Outcome classifies how a trial ended in the journal and merged results.
type Outcome string

const (
	// OutcomeOK: the trial succeeded on its first attempt.
	OutcomeOK Outcome = "ok"
	// OutcomeRetried: the trial succeeded after at least one failed attempt.
	OutcomeRetried Outcome = "retried"
	// OutcomeFailed: the trial exhausted its retry budget.
	OutcomeFailed Outcome = "failed"
	// OutcomeSkipped: the trial was interrupted (cancellation before or
	// during execution); a resume re-executes it.
	OutcomeSkipped Outcome = "skipped"
)

// FailKind classifies one failed attempt.
type FailKind string

const (
	// FailPanic: the trial panicked; the recovered value and stack are on
	// the TrialError.
	FailPanic FailKind = "panic"
	// FailTimeout: the trial hit its virtual-clock deadline
	// (faults.ErrDeadline).
	FailTimeout FailKind = "timeout"
	// FailInterrupted: the trial was aborted by cancellation
	// (faults.ErrInterrupted or a context error). Not retried.
	FailInterrupted FailKind = "interrupted"
	// FailModel: the trial's model reported an outcome that is a pure
	// function of its spec (see Final). Every attempt would fail the same
	// way, so it is not retried.
	FailModel FailKind = "model"
	// FailError: any other trial error.
	FailError FailKind = "error"
)

// finalError marks an error as a pure function of the trial's spec.
type finalError struct{ error }

func (e finalError) Unwrap() error { return e.error }

// Final marks err as a pure function of the trial's spec — a degenerate
// model outcome or an invalid parameter, not a crash or a timeout — so
// Classify files it as FailModel and the supervisor stops at the first
// attempt. The error text is err's own.
func Final(err error) error { return finalError{err} }

// TrialError is the typed failure of one trial attempt. It wraps the
// underlying error (errors.Is/As reach through it) and, for panics, carries
// the recovered goroutine stack.
type TrialError struct {
	Key     string
	Attempt int
	Kind    FailKind
	Err     error
	// Stack is the goroutine stack captured at recover time (panics only).
	// It stays in memory for diagnostics; journal records carry only the
	// error text, keeping them deterministic and small.
	Stack string
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %s attempt %d %s: %v", e.Key, e.Attempt, e.Kind, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// Trial is one supervised unit of work. Run must be a pure function of the
// trial's configuration and Seed — the resume guarantee (interrupted +
// resumed == uninterrupted, byte for byte) rests on it.
type Trial struct {
	// Key uniquely identifies the trial within a sweep; it is the journal
	// key that makes resume idempotent.
	Key string
	// Seed is recorded in the journal; a resumed sweep re-validates it so
	// a journal from a different seeding never silently merges.
	Seed uint64
	// Run executes the trial. The context aborts in-flight work when the
	// sweep is cancelled (core wires it into the engine watchdog). The
	// returned value is JSON-marshalled into the journal record.
	Run func(ctx context.Context) (any, error)
	// Spec, when non-nil, is a JSON-marshallable description of the trial
	// that out-of-process executors (internal/isolate) can ship across a
	// process boundary. The in-process executor ignores it; a trial
	// without a Spec always runs in-process.
	Spec any
}

// TrialExecutor runs a single attempt of a trial. The default executor
// (InProcess) calls Trial.Run on the worker goroutine under panic
// isolation; alternative executors may run the attempt elsewhere — e.g.
// internal/isolate spawns a crash-isolated child process. Every failure
// must come back as a classified *TrialError so the supervisor's retry
// and journaling logic applies uniformly.
type TrialExecutor interface {
	ExecuteTrial(ctx context.Context, tr Trial, attempt int) (json.RawMessage, *TrialError)
}

// InProcess is the default TrialExecutor: Trial.Run on the calling
// goroutine with panic recovery.
type InProcess struct{}

// ExecuteTrial implements TrialExecutor.
func (InProcess) ExecuteTrial(ctx context.Context, tr Trial, attempt int) (json.RawMessage, *TrialError) {
	return attemptOnce(ctx, tr, attempt)
}

// Record is one journaled trial outcome — one JSONL line. Field order is
// fixed and no wall-clock time is recorded, so journals are deterministic.
type Record struct {
	Key      string          `json:"key"`
	Seed     uint64          `json:"seed"`
	Outcome  Outcome         `json:"outcome"`
	Attempts int             `json:"attempts"`
	Hash     string          `json:"hash,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Err      string          `json:"err,omitempty"`
}

// Config tunes the supervisor. The zero value is usable: one worker, three
// attempts per trial, 50 ms base backoff capped at 2 s.
type Config struct {
	// Workers bounds the pool (<= 0 selects 1). Results and journal
	// contents are deterministic for any worker count; journal line
	// *order* is only deterministic with one worker.
	Workers int
	// MaxAttempts is the per-trial attempt budget (<= 0 selects 3).
	MaxAttempts int
	// BackoffBase is the first retry delay; attempt n waits
	// base * 2^(n-1), jittered to [0.5x, 1.5x). 0 selects 50 ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. 0 selects 2 s.
	BackoffCap time.Duration
	// Seed seeds the retry-jitter RNG (mixed with each trial's key and
	// seed), making retry schedules deterministic run-to-run.
	Seed uint64
	// Journal, when non-nil, receives one Record per executed trial.
	Journal *Journal
	// OrderedJournal buffers journal appends and flushes them in trial
	// input order, regardless of worker count or completion order: any
	// crash leaves the journal a byte-exact prefix of the single-worker
	// journal, which is what makes a resumed multi-worker (or
	// distributed) sweep's journal bit-identical to an uninterrupted
	// single-process one. The cost is that a slow early trial delays the
	// persistence (never the execution) of later ones.
	OrderedJournal bool
	// Warnf, when non-nil, receives non-fatal supervision warnings (e.g.
	// a checkpoint journal with a torn final line from a crash).
	Warnf func(format string, args ...any)
	// Done maps trial keys to previously journaled records (see
	// RecoverJournal). Trials whose record is complete (ok/retried, matching
	// seed, intact hash) are replayed, not re-executed.
	Done map[string]Record
	// OnRecord, when non-nil, observes every record (replayed or fresh) as
	// it completes. Calls are serialized.
	OnRecord func(Record)
	// OnTrialStart, when non-nil, observes each attempt just before it
	// executes (never for journal replays). worker is the pool index running
	// the attempt; attempt counts from 1. May be called concurrently from
	// different workers.
	OnTrialStart func(key string, worker, attempt int)
	// OnRetry, when non-nil, observes each failed attempt that will be
	// retried, with the computed backoff delay about to be slept. May be
	// called concurrently from different workers.
	OnRetry func(key string, attempt int, err error, backoff time.Duration)
	// Executor runs individual trial attempts; nil selects InProcess.
	Executor TrialExecutor

	// sleep is the backoff clock, replaceable by tests.
	sleep func(ctx context.Context, d time.Duration) error
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	if cfg.Executor == nil {
		cfg.Executor = InProcess{}
	}
	return cfg
}

// SweepResult is the merged outcome of a supervised sweep.
type SweepResult struct {
	// Records holds one record per input trial, in input order regardless
	// of completion order.
	Records []Record
	// Reused counts records satisfied from the journal instead of
	// execution.
	Reused int
	// Interrupted reports whether the sweep's context was cancelled.
	Interrupted bool
}

// Count returns how many records carry the given outcome.
func (r *SweepResult) Count(o Outcome) int {
	n := 0
	for _, rec := range r.Records {
		if rec.Outcome == o {
			n++
		}
	}
	return n
}

// Run executes trials under supervision and returns the merged records.
// The returned error reports setup problems (invalid trials, journal IO);
// trial failures are Records with OutcomeFailed, never an error — and never
// a process crash.
func Run(ctx context.Context, cfg Config, trials []Trial) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	seen := make(map[string]int, len(trials))
	for i, tr := range trials {
		if tr.Key == "" {
			return nil, fmt.Errorf("runner: trial %d has an empty key", i)
		}
		if tr.Run == nil {
			return nil, fmt.Errorf("runner: trial %q has a nil Run", tr.Key)
		}
		if j, dup := seen[tr.Key]; dup {
			return nil, fmt.Errorf("runner: duplicate trial key %q (trials %d and %d)", tr.Key, j, i)
		}
		seen[tr.Key] = i
	}

	res := &SweepResult{Records: make([]Record, len(trials))}
	var (
		mu   sync.Mutex // serializes journal appends + OnRecord + Reused
		jerr error      // first journal append failure
		// Ordered-journal state: completed-but-unflushed records by trial
		// index (nil marks a replayed record that must advance the cursor
		// without re-appending), and the next index to flush.
		pending map[int]*Record
		nextJ   int
	)
	if cfg.OrderedJournal && cfg.Journal != nil {
		pending = make(map[int]*Record)
	}
	finish := func(idx int, rec Record, reused bool) {
		mu.Lock()
		defer mu.Unlock()
		res.Records[idx] = rec
		if reused {
			res.Reused++
		}
		if cfg.Journal != nil && jerr == nil {
			switch {
			case pending != nil:
				if reused {
					pending[idx] = nil
				} else {
					r := rec
					pending[idx] = &r
				}
				for {
					r, ok := pending[nextJ]
					if !ok {
						break
					}
					if r != nil {
						if jerr = cfg.Journal.Append(*r); jerr != nil {
							break
						}
					}
					delete(pending, nextJ)
					nextJ++
				}
			case !reused:
				jerr = cfg.Journal.Append(rec)
			}
		}
		if cfg.OnRecord != nil {
			cfg.OnRecord(rec)
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range work {
				tr := trials[idx]
				if done, ok := cfg.Done[tr.Key]; ok && replayable(done, tr) {
					finish(idx, done, true)
					continue
				}
				finish(idx, supervise(ctx, cfg, tr, worker), false)
			}
		}(w)
	}
	for idx := range trials {
		work <- idx
	}
	close(work)
	wg.Wait()

	res.Interrupted = ctx.Err() != nil
	if jerr != nil {
		return res, fmt.Errorf("runner: checkpoint journal: %w", jerr)
	}
	return res, nil
}

// RunCheckpointed runs trials against the JSONL checkpoint journal at path.
// With resume false the journal is truncated and every trial executes. With
// resume true it replays the journal's verified prefix and executes only
// the trials it does not already answer (missing, failed, or skipped
// records, or records whose seed/hash no longer match), appending fresh
// records to the same journal. Merged with the replayed records, the result
// is bit-identical to an uninterrupted run of the same trials.
func RunCheckpointed(ctx context.Context, cfg Config, trials []Trial, path string, resume bool) (*SweepResult, error) {
	if resume {
		done, info, err := RecoverJournal(path)
		if err != nil {
			return nil, err
		}
		if cfg.Warnf != nil {
			if info.TornTail {
				cfg.Warnf("journal %s ends in a torn line (crash mid-write); resuming from the last complete record", path)
			}
			if info.CorruptSuffix {
				cfg.Warnf("journal %s fails its integrity check at line %d (flipped bits or spliced records); truncated to the verified prefix of %d records",
					path, info.BadLine, info.Records)
			}
		}
		cfg.Done = done
	}
	j, err := OpenJournal(path, resume)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	cfg.Journal = j
	res, err := Run(ctx, cfg, trials)
	if err != nil {
		return res, err
	}
	if cerr := j.Close(); cerr != nil {
		return res, fmt.Errorf("runner: checkpoint journal: %w", cerr)
	}
	return res, nil
}

// replayable reports whether a journaled record still answers the trial:
// the trial completed (ok or retried), under the same seed, and the stored
// result bytes still match their hash (a truncated or hand-edited journal
// line falls through to re-execution instead of corrupting the merge).
func replayable(rec Record, tr Trial) bool {
	if rec.Outcome != OutcomeOK && rec.Outcome != OutcomeRetried {
		return false
	}
	if rec.Seed != tr.Seed {
		return false
	}
	return rec.Hash == hashBytes(rec.Result)
}

// supervise runs one trial to a final record: panic isolation, typed
// failure classification, bounded retry with deterministic backoff, and
// interruption handling. worker identifies the pool goroutine, for the
// OnTrialStart observer only — it never influences execution.
func supervise(ctx context.Context, cfg Config, tr Trial, worker int) Record {
	rec := Record{Key: tr.Key, Seed: tr.Seed}
	// The jitter stream mixes the sweep seed with the trial identity so
	// every trial owns an independent, reproducible backoff schedule.
	rng := stats.NewRNG(cfg.Seed ^ hashKey(tr.Key) ^ (tr.Seed * 0x9e3779b97f4a7c15))
	var last *TrialError
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			rec.Outcome = OutcomeSkipped
			rec.Attempts = attempt - 1
			rec.Err = fmt.Sprintf("interrupted before attempt %d: %v", attempt, ctx.Err())
			return rec
		}
		if cfg.OnTrialStart != nil {
			cfg.OnTrialStart(tr.Key, worker, attempt)
		}
		raw, terr := cfg.Executor.ExecuteTrial(ctx, tr, attempt)
		rec.Attempts = attempt
		if terr == nil {
			rec.Result = raw
			rec.Hash = hashBytes(raw)
			if attempt == 1 {
				rec.Outcome = OutcomeOK
			} else {
				rec.Outcome = OutcomeRetried
			}
			return rec
		}
		if terr.Kind == FailInterrupted {
			// Cancellation is not a trial failure: record it as skipped so
			// a resume re-executes the trial from scratch.
			rec.Outcome = OutcomeSkipped
			rec.Err = terr.Error()
			return rec
		}
		last = terr
		if terr.Kind == FailModel {
			break
		}
		if attempt < cfg.MaxAttempts {
			d := backoff(cfg, attempt, rng)
			if cfg.OnRetry != nil {
				cfg.OnRetry(tr.Key, attempt, terr, d)
			}
			if err := cfg.sleep(ctx, d); err != nil {
				rec.Outcome = OutcomeSkipped
				rec.Err = fmt.Sprintf("interrupted during backoff after %v", terr)
				return rec
			}
		}
	}
	rec.Outcome = OutcomeFailed
	rec.Err = last.Error()
	return rec
}

// attemptOnce executes one attempt with panic recovery and marshals the
// result. Every failure comes back as a classified *TrialError.
func attemptOnce(ctx context.Context, tr Trial, attempt int) (raw json.RawMessage, terr *TrialError) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("%v", r)
			}
			raw = nil
			terr = &TrialError{Key: tr.Key, Attempt: attempt, Kind: FailPanic,
				Err: err, Stack: string(debug.Stack())}
		}
	}()
	res, err := tr.Run(ctx)
	if err != nil {
		return nil, &TrialError{Key: tr.Key, Attempt: attempt, Kind: Classify(err), Err: err}
	}
	raw, err = json.Marshal(res)
	if err != nil {
		return nil, &TrialError{Key: tr.Key, Attempt: attempt, Kind: FailError,
			Err: fmt.Errorf("marshal result: %w", err)}
	}
	return raw, nil
}

// Classify maps a trial error to its failure kind: the watchdog's typed
// aborts become timeout/interrupted, an error marked Final becomes model,
// everything else is a plain error.
// Out-of-process executors use it so a child killed over a deadline and a
// trial that timed out in-process land in the same FailKind.
func Classify(err error) FailKind {
	switch {
	case errors.Is(err, faults.ErrDeadline):
		return FailTimeout
	case errors.Is(err, faults.ErrInterrupted),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return FailInterrupted
	case errors.As(err, new(finalError)):
		return FailModel
	default:
		return FailError
	}
}

// backoff computes the delay before the next attempt: exponential in the
// attempt number, capped, and jittered to [0.5x, 1.5x) from the trial's
// deterministic RNG stream.
func backoff(cfg Config, attempt int, rng *stats.RNG) time.Duration {
	d := cfg.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cfg.BackoffCap {
			d = cfg.BackoffCap
			break
		}
	}
	if d > cfg.BackoffCap {
		d = cfg.BackoffCap
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// sleepCtx is a cancellable sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hashKey hashes a trial key into the jitter-seed space.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// hashBytes returns the FNV-1a 64 digest of b in fixed-width hex — the
// journal's result-integrity hash.
func hashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
