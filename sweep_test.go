package quicbench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// sweepTestOpts keeps facade sweep tests fast: two stacks, short flows.
func sweepTestOpts() SweepOptions {
	return SweepOptions{
		Stacks: []string{"quicgo", "lsquic"},
		CCAs:   []CCA{CUBIC},
		Networks: []Network{{
			BandwidthMbps: 20,
			RTT:           10 * time.Millisecond,
			BufferBDP:     1,
			Duration:      2 * time.Second,
			Trials:        2,
			Seed:          3,
		}},
	}
}

func TestRunSweepFacade(t *testing.T) {
	opts := sweepTestOpts()
	var progressed int
	opts.Progress = func(SweepCellResult) { progressed++ }
	sum, err := RunSweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 || progressed != 2 {
		t.Fatalf("got %d cells, %d progress calls, want 2/2", len(sum.Cells), progressed)
	}
	for _, c := range sum.Cells {
		if !c.Completed() || c.Outcome != "ok" || c.Attempts != 1 {
			t.Errorf("cell %s: outcome %s attempts %d, want ok/1", c.Cell, c.Outcome, c.Attempts)
		}
		if c.Report.K < 1 {
			t.Errorf("cell %s: report not populated (K=%d)", c.Cell, c.Report.K)
		}
	}
	if sum.Failed() != 0 || sum.Skipped() != 0 || sum.Interrupted {
		t.Errorf("clean sweep reported failures: %+v", sum)
	}

	var buf bytes.Buffer
	if err := RenderSweep(&buf, sum); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "quicgo/cubic") || !strings.Contains(out, "2 cells: 2 ok") {
		t.Errorf("RenderSweep output incomplete:\n%s", out)
	}
}

func TestRunSweepFacadeCheckpointResume(t *testing.T) {
	opts := sweepTestOpts()
	opts.Checkpoint = t.TempDir() + "/sweep.jsonl"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Progress = func(SweepCellResult) { cancel() } // stop after the first cell
	part, err := RunSweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Interrupted || part.Skipped() != 1 {
		t.Fatalf("interrupted sweep: Interrupted=%v Skipped=%d, want true/1", part.Interrupted, part.Skipped())
	}

	opts.Progress = nil
	opts.Resume = true
	sum, err := RunSweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reused != 1 || sum.Interrupted {
		t.Fatalf("resume: Reused=%d Interrupted=%v, want 1/false", sum.Reused, sum.Interrupted)
	}
	for _, c := range sum.Cells {
		if c.Outcome != "ok" {
			t.Errorf("resumed cell %s outcome %s, want ok", c.Cell, c.Outcome)
		}
	}
}

func TestRunSweepUnknownStack(t *testing.T) {
	opts := sweepTestOpts()
	opts.Stacks = []string{"nosuchstack"}
	if _, err := RunSweep(context.Background(), opts); err == nil {
		t.Fatal("RunSweep accepted an unknown stack")
	}
}

// TestSweepImpairmentsGrid: each impairment multiplies the grid, levels
// innermost; the zero Impairment is the pristine cell, keyed exactly as in
// an unimpaired grid; impairments do not combine with many-flow cells.
func TestSweepImpairmentsGrid(t *testing.T) {
	plain, err := sweepCells(sweepTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := sweepTestOpts()
	opts.Impairments = []Impairment{{}, {LossProb: 0.01}, {Burst: true, LossProb: 0.5}, {BlackoutStart: 800 * time.Millisecond, BlackoutDuration: 200 * time.Millisecond}}
	cells, err := sweepCells(opts)
	if err != nil {
		t.Fatal(err)
	}
	suffixes := []string{"", "/loss0.01", "/burst", "/blackout800ms+200ms"}
	if len(cells) != len(plain)*len(suffixes) {
		t.Fatalf("got %d cells, want %d", len(cells), len(plain)*len(suffixes))
	}
	for i, c := range cells {
		if want := plain[i/len(suffixes)].Key() + suffixes[i%len(suffixes)]; c.Key() != want {
			t.Errorf("cell %d key %q, want %q", i, c.Key(), want)
		}
	}
	if cells[0].Impair != nil {
		t.Errorf("zero Impairment lowered to %+v, want nil (the pristine cell)", cells[0].Impair)
	}
	opts.TrafficSpec = DefaultTrafficSpec()
	if _, err := sweepCells(opts); err == nil {
		t.Error("impairments accepted on many-flow cells")
	}
}
