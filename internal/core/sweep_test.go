package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stacks"
)

func TestSpecE(t *testing.T) {
	if _, err := SpecE("quicgo", stacks.CUBIC); err != nil {
		t.Fatalf("SpecE(quicgo) = %v", err)
	}
	_, err := SpecE("nosuchstack", stacks.CUBIC)
	if !errors.Is(err, ErrUnknownStack) {
		t.Fatalf("SpecE(nosuchstack) = %v, want ErrUnknownStack", err)
	}
}

// TestSpecPanicsWithErrorValue: the legacy wrapper keeps panicking, but the
// panic value is now an error wrapping ErrUnknownStack so supervised
// recover paths can classify it.
func TestSpecPanicsWithErrorValue(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Spec(nosuchstack) did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", r, r)
		}
		if !errors.Is(err, ErrUnknownStack) {
			t.Fatalf("panic error %v does not wrap ErrUnknownStack", err)
		}
	}()
	Spec("nosuchstack", stacks.CUBIC)
}

// sweepNet keeps supervised-sweep tests fast: short flows, two trials.
func sweepNet(seed uint64) Network {
	return Network{
		BandwidthMbps: 20,
		RTT:           10 * sim.Millisecond,
		BufferBDP:     1,
		Duration:      2 * sim.Second,
		Trials:        2,
		Seed:          seed,
	}
}

// TestRunTrialBoundedDeadline: a virtual-clock deadline shorter than the
// flow duration aborts the trial with the typed faults.ErrDeadline.
func TestRunTrialBoundedDeadline(t *testing.T) {
	n := sweepNet(5)
	a, err := SpecE("quicgo", stacks.CUBIC)
	if err != nil {
		t.Fatal(err)
	}
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	_, terr := runTrial(a, b, n, 0, nil, Bounds{Deadline: 200 * sim.Millisecond}, nil)
	if !errors.Is(terr, faults.ErrDeadline) {
		t.Fatalf("runTrial with 200ms deadline on a 2s flow: %v, want ErrDeadline", terr)
	}
	// A deadline past the duration is inert.
	if _, err := runTrial(a, b, n, 0, nil, Bounds{Deadline: 10 * sim.Second}, nil); err != nil {
		t.Fatalf("inert deadline aborted the trial: %v", err)
	}
}

// TestRunTrialBoundedInterrupt: a cancelled context reaches an in-flight
// discrete-event run through the watchdog and surfaces ErrInterrupted.
func TestRunTrialBoundedInterrupt(t *testing.T) {
	n := sweepNet(6)
	a, err := SpecE("quicgo", stacks.CUBIC)
	if err != nil {
		t.Fatal(err)
	}
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first guard tick must abort the run
	_, terr := runTrial(a, b, n, 0, nil, Bounds{Ctx: ctx}, nil)
	if !errors.Is(terr, faults.ErrInterrupted) {
		t.Fatalf("runTrial under a cancelled context: %v, want ErrInterrupted", terr)
	}
}

func TestGridCells(t *testing.T) {
	nets := []Network{sweepNet(1), func() Network { n := sweepNet(1); n.BufferBDP = 5; return n }()}
	cells, err := GridCells([]string{"quicgo", "xquic"}, []stacks.CCA{stacks.CUBIC, stacks.BBR}, nets)
	if err != nil {
		t.Fatal(err)
	}
	// quicgo ships CUBIC only; xquic ships CUBIC, BBR and Reno.
	want := (1 + 2) * len(nets)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.Key()] {
			t.Fatalf("duplicate cell key %q", c.Key())
		}
		keys[c.Key()] = true
	}
	if _, err := GridCells([]string{"nosuchstack"}, []stacks.CCA{stacks.CUBIC}, nets); !errors.Is(err, ErrUnknownStack) {
		t.Fatalf("unknown stack: %v, want ErrUnknownStack", err)
	}
}

// TestSweepResumeBitIdentical is the end-to-end acceptance test: a real
// conformance sweep interrupted mid-way and resumed from its JSONL journal
// must merge to records byte-identical to an uninterrupted run.
func TestSweepResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep resume test skipped in -short (run via make sweep-smoke or the full suite)")
	}
	cells, err := GridCells([]string{"quicgo", "lsquic"}, []stacks.CCA{stacks.CUBIC}, []Network{sweepNet(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	dir := t.TempDir()
	cfg := SweepConfig{Config: runner.Config{Workers: 1, Seed: 9}, Checkpoint: dir + "/full.jsonl"}
	full, err := RunSweep(context.Background(), cfg, cells)
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}
	if n := full.Count(runner.OutcomeOK); n != 2 {
		t.Fatalf("uninterrupted sweep: %d ok cells, want 2 (records: %+v)", n, full.Records)
	}

	// Interrupted run: cancel after the first completed cell. The second
	// in-flight cell aborts through the engine watchdog and records
	// skipped.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	icfg := cfg
	icfg.Checkpoint = dir + "/interrupted.jsonl"
	var once sync.Once
	icfg.OnRecord = func(runner.Record) { once.Do(cancel) }
	part, err := RunSweep(ctx, icfg, cells)
	if err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}
	if !part.Interrupted {
		t.Fatal("interrupted sweep not marked Interrupted")
	}
	if part.Count(runner.OutcomeSkipped) != 1 {
		t.Fatalf("interrupted sweep: %d skipped, want 1 (records: %+v)",
			part.Count(runner.OutcomeSkipped), part.Records)
	}

	rcfg := icfg
	rcfg.OnRecord = nil
	rcfg.Resume = true
	res, err := RunSweep(context.Background(), rcfg, cells)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if res.Reused != 1 {
		t.Errorf("resume reused %d records, want 1", res.Reused)
	}
	want, _ := json.Marshal(full.Records)
	got, _ := json.Marshal(res.Records)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed sweep differs from uninterrupted run:\nwant %s\ngot  %s", want, got)
	}
}

// TestSweepTimeoutCellIsTypedFailure: a cell whose deadline is shorter than
// its flows fails with a typed timeout outcome after its retry budget — the
// sweep itself neither crashes nor stops.
func TestSweepTimeoutCellIsTypedFailure(t *testing.T) {
	cells, err := GridCells([]string{"quicgo"}, []stacks.CCA{stacks.CUBIC}, []Network{sweepNet(4)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(context.Background(), SweepConfig{
		Config:        runner.Config{MaxAttempts: 2},
		TrialDeadline: 100 * sim.Millisecond,
	}, cells)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	rec := res.Records[0]
	if rec.Outcome != runner.OutcomeFailed || rec.Attempts != 2 {
		t.Fatalf("timed-out cell: outcome %s attempts %d, want failed/2", rec.Outcome, rec.Attempts)
	}
	if !strings.Contains(rec.Err, "timeout") {
		t.Errorf("record error %q not classified as timeout", rec.Err)
	}
}

// TestExecuteCellSpecBitIdentical: the isolated-child code path
// (marshalled CellTrialSpec in, marshalled CellReport out) must produce
// byte-identical results to the in-process trial closure for the same
// cell and seed — the foundation of the isolate/in-process equivalence.
func TestExecuteCellSpecBitIdentical(t *testing.T) {
	cell := SweepCell{Stack: "quicgo", CCA: stacks.CUBIC, Net: sweepNet(5)}
	trials := sweepTrials([]SweepCell{cell}, 0, nil)

	inproc, err := trials[0].Run(context.Background())
	if err != nil {
		t.Fatalf("in-process trial: %v", err)
	}
	inprocRaw, err := json.Marshal(inproc)
	if err != nil {
		t.Fatal(err)
	}

	payload, err := json.Marshal(trials[0].Spec)
	if err != nil {
		t.Fatalf("trial spec is not serializable: %v", err)
	}
	childRaw, err := ExecuteCellSpec(context.Background(), payload)
	if err != nil {
		t.Fatalf("ExecuteCellSpec: %v", err)
	}
	if !bytes.Equal(inprocRaw, childRaw) {
		t.Errorf("isolated bytes differ from in-process:\nin-process %s\nisolated   %s", inprocRaw, childRaw)
	}
}

// TestExecuteCellSpecBadPayload: garbage from a broken child pipe is an
// error, not a panic.
func TestExecuteCellSpecBadPayload(t *testing.T) {
	if _, err := ExecuteCellSpec(context.Background(), []byte("not json")); err == nil {
		t.Error("garbage payload accepted")
	}
}
