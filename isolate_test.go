package quicbench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/isolate"
	"repro/internal/runner"
)

// TestMain doubles as the isolated trial child: `RunSweep` with Isolate
// re-execs this test binary (argv `_trial`, ChildEnvMarker set), and this
// hook routes the child into the real TrialChildMain — the same code path
// the production `quicbench _trial` mode runs.
func TestMain(m *testing.M) {
	if os.Getenv(isolate.ChildEnvMarker) == "1" {
		os.Exit(TrialChildMain())
	}
	os.Exit(m.Run())
}

// isolatedTestOpts tunes sweepTestOpts for subprocess execution: tight
// supervision intervals so failure tests stay fast.
func isolatedTestOpts() SweepOptions {
	opts := sweepTestOpts()
	opts.Isolate = true
	opts.IsolateStallTimeout = 2 * time.Second
	return opts
}

// journalRecords reads a checkpoint journal into its per-key records.
func journalRecords(t *testing.T, path string) map[string]runner.Record {
	t.Helper()
	done, err := runner.ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal(%s): %v", path, err)
	}
	return done
}

// TestIsolatedSweepBitIdentical: the same seeded sweep run in-process and
// under subprocess isolation must journal byte-identical results — crash
// isolation is an execution detail, never a measurement change.
func TestIsolatedSweepBitIdentical(t *testing.T) {
	dir := t.TempDir()
	inprocJ := filepath.Join(dir, "inproc.jsonl")
	isoJ := filepath.Join(dir, "iso.jsonl")

	opts := sweepTestOpts()
	opts.Checkpoint = inprocJ
	if _, err := RunSweep(context.Background(), opts); err != nil {
		t.Fatalf("in-process sweep: %v", err)
	}

	iopts := isolatedTestOpts()
	iopts.Checkpoint = isoJ
	iopts.OnFallback = func(cell string, err error) {
		t.Errorf("cell %s silently degraded to in-process: %v", cell, err)
	}
	sum, err := RunSweep(context.Background(), iopts)
	if err != nil {
		t.Fatalf("isolated sweep: %v", err)
	}
	for _, c := range sum.Cells {
		if !c.Completed() {
			t.Fatalf("isolated cell %s: outcome %s (%s)", c.Cell, c.Outcome, c.Err)
		}
	}

	inproc, iso := journalRecords(t, inprocJ), journalRecords(t, isoJ)
	if len(inproc) == 0 || len(inproc) != len(iso) {
		t.Fatalf("journal sizes differ: in-process %d, isolated %d", len(inproc), len(iso))
	}
	for key, want := range inproc {
		got, ok := iso[key]
		if !ok {
			t.Errorf("cell %s missing from the isolated journal", key)
			continue
		}
		if !bytes.Equal(want.Result, got.Result) || want.Hash != got.Hash {
			t.Errorf("cell %s not bit-identical:\nin-process %s (%s)\nisolated   %s (%s)",
				key, want.Result, want.Hash, got.Result, got.Hash)
		}
	}
}

// TestIsolatedSweepWedgeClassified is the reaper end-to-end: one cell's
// child wedges via the QUICBENCH_TEST_WEDGE hook, is SIGKILLed, classified
// as a timeout, retried to its budget, and the sweep still completes with
// the wedged cell annotated failed and its neighbour healthy.
func TestIsolatedSweepWedgeClassified(t *testing.T) {
	t.Setenv(faults.EnvWedge, "lsquic")
	opts := isolatedTestOpts()
	opts.Retries = 2
	opts.IsolateStallTimeout = 500 * time.Millisecond

	sum, err := RunSweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("sweep did not survive the wedge: %v", err)
	}
	var sawWedged, sawHealthy bool
	for _, c := range sum.Cells {
		switch {
		case strings.HasPrefix(c.Cell, "lsquic/"):
			sawWedged = true
			if c.Outcome != string(runner.OutcomeFailed) {
				t.Errorf("wedged cell %s outcome = %s, want failed", c.Cell, c.Outcome)
			}
			if c.Attempts != 2 {
				t.Errorf("wedged cell attempts = %d, want the full budget of 2", c.Attempts)
			}
			if !strings.Contains(c.Err, "timeout") || !strings.Contains(c.Err, "heartbeat") {
				t.Errorf("wedged cell err %q does not describe a heartbeat timeout", c.Err)
			}
		default:
			sawHealthy = true
			if !c.Completed() {
				t.Errorf("healthy cell %s outcome = %s (%s)", c.Cell, c.Outcome, c.Err)
			}
		}
	}
	if !sawWedged || !sawHealthy {
		t.Fatalf("grid missing wedged or healthy cells: %+v", sum.Cells)
	}
}

// TestIsolatedSweepPanicClassified: a panic inside an isolated child is
// recovered by the child, reported over the pipe, and journaled exactly
// like an in-process panic.
func TestIsolatedSweepPanicClassified(t *testing.T) {
	t.Setenv(faults.EnvPanic, "lsquic")
	opts := isolatedTestOpts()
	opts.Retries = 2

	sum, err := RunSweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("sweep did not survive the panic: %v", err)
	}
	for _, c := range sum.Cells {
		if strings.HasPrefix(c.Cell, "lsquic/") {
			if c.Outcome != string(runner.OutcomeFailed) || !strings.Contains(c.Err, "panic") {
				t.Errorf("panicking cell %s: outcome %s err %q, want failed/panic", c.Cell, c.Outcome, c.Err)
			}
		} else if !c.Completed() {
			t.Errorf("healthy cell %s outcome = %s (%s)", c.Cell, c.Outcome, c.Err)
		}
	}
}

// TestIsolatedSweepResume: an isolated sweep interrupted mid-way (the
// checkpointed-journal equivalent of the parent being SIGKILLed: only
// journaled cells survive, in-flight ones do not) resumes to results
// bit-identical to an uninterrupted isolated run.
func TestIsolatedSweepResume(t *testing.T) {
	dir := t.TempDir()
	fullJ := filepath.Join(dir, "full.jsonl")
	partJ := filepath.Join(dir, "part.jsonl")

	full := isolatedTestOpts()
	full.Checkpoint = fullJ
	if _, err := RunSweep(context.Background(), full); err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}

	// Interrupt after the first completed cell.
	ctx, cancel := context.WithCancel(context.Background())
	part := isolatedTestOpts()
	part.Checkpoint = partJ
	part.Progress = func(SweepCellResult) { cancel() }
	sum, err := RunSweep(ctx, part)
	if err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}
	if !sum.Interrupted {
		t.Fatal("sweep did not observe the interruption")
	}

	// Resume from the journal and compare against the uninterrupted run.
	resume := isolatedTestOpts()
	resume.Checkpoint = partJ
	resume.Resume = true
	sum2, err := RunSweep(context.Background(), resume)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if sum2.Reused == 0 {
		t.Error("resume re-executed every cell; the journal was ignored")
	}
	want, got := journalRecords(t, fullJ), journalRecords(t, partJ)
	if len(want) != len(got) {
		t.Fatalf("resumed journal has %d cells, want %d", len(got), len(want))
	}
	for key, w := range want {
		g := got[key]
		if !bytes.Equal(w.Result, g.Result) || w.Hash != g.Hash {
			t.Errorf("cell %s: resumed result not bit-identical to uninterrupted run", key)
		}
	}
}
