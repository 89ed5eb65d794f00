package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/telemetry"
)

// traceNet shortens quickNet so three CCAs x two runs stay fast.
func traceNet() Network {
	n := quickNet()
	n.Duration = 5 * sim.Second
	return n
}

// runTraced executes one traced trial into a buffer and returns the raw
// JSONL bytes plus the trial result.
func runTraced(t *testing.T, cca stacks.CCA, trial int) ([]byte, *TrialResult) {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJSONL(&buf)
	// The reference stack implements every CC family, so both flows use it.
	a := Flow{Stack: stacks.Reference(), CCA: cca}
	b := Flow{Stack: stacks.Reference(), CCA: cca}
	res, err := RunTrialTraced(a, b, traceNet(), trial, j)
	if err != nil {
		t.Fatalf("%s traced trial: %v", cca, err)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("%s flush: %v", cca, err)
	}
	return buf.Bytes(), res
}

// TestRunTrialTracedDeterministic: the same seed+trial must produce
// byte-identical traces across runs, for every CC family — the seed-stable
// property the golden sweep test builds on.
func TestRunTrialTracedDeterministic(t *testing.T) {
	for _, cca := range stacks.AllCCAs {
		b1, _ := runTraced(t, cca, 3)
		b2, _ := runTraced(t, cca, 3)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: same seed+trial produced different trace bytes (%d vs %d)", cca, len(b1), len(b2))
		}
		if len(b1) == 0 {
			t.Errorf("%s: traced trial emitted no events", cca)
		}
	}
}

// TestRunTrialTracedDoesNotPerturb: attaching a tracer must not change the
// measurement — traced and untraced trials share every RNG draw and event.
func TestRunTrialTracedDoesNotPerturb(t *testing.T) {
	for _, cca := range stacks.AllCCAs {
		_, traced := runTraced(t, cca, 3)
		a := Flow{Stack: stacks.Reference(), CCA: cca}
		b := Flow{Stack: stacks.Reference(), CCA: cca}
		plain, err := RunTrialE(a, b, traceNet(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if traced.MeanMbps != plain.MeanMbps || traced.Drops != plain.Drops || traced.Events != plain.Events {
			t.Errorf("%s: traced result diverged from untraced: %+v vs %+v",
				cca, traced.MeanMbps, plain.MeanMbps)
		}
	}
}

// TestRunTrialTracedEventCoverage: each CC family's trace must carry the
// qlog event vocabulary the schema promises — metrics updates, state
// transitions, loss samples, and the end-of-trial summaries.
func TestRunTrialTracedEventCoverage(t *testing.T) {
	for _, cca := range stacks.AllCCAs {
		raw, _ := runTraced(t, cca, 3)
		s := string(raw)
		for _, ev := range []string{
			telemetry.EvMetrics, telemetry.EvState, telemetry.EvPacketsLost,
			telemetry.EvTransport, telemetry.EvTrial,
		} {
			if !strings.Contains(s, ev) {
				t.Errorf("%s: trace is missing %q events", cca, ev)
			}
		}
	}
}

// TestCellTracerFiles: the sweep-facing path writes one validated JSONL
// file per trial under the sanitized cell directory, with the right
// header identity (role, trial offset, seed).
func TestCellTracerFiles(t *testing.T) {
	dir := t.TempDir()
	n := traceNet()
	n.Trials = 2
	c := SweepCell{Stack: "quicgo", CCA: stacks.CUBIC, Net: n}
	if _, err := runCell(context.Background(), c, 0, &TraceOptions{Dir: dir}); err != nil {
		t.Fatalf("runCell: %v", err)
	}

	cellDir := filepath.Join(dir, cellDirName(c.Key()))
	for _, want := range []struct {
		file  string
		role  string
		trial int
	}{
		{"test0.qlog.jsonl", "test", 0},
		{"test1.qlog.jsonl", "test", 1},
		{"ref0.qlog.jsonl", "ref", 1000},
		{"ref1.qlog.jsonl", "ref", 1001},
	} {
		f, err := os.Open(filepath.Join(cellDir, want.file))
		if err != nil {
			t.Fatalf("trace file missing: %v", err)
		}
		hdr, events, err := telemetry.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", want.file, err)
		}
		if hdr.Role != want.role || hdr.Trial != want.trial || hdr.Seed != n.Seed || hdr.Cell != c.Key() {
			t.Errorf("%s: header = %+v, want role %s trial %d seed %d cell %s",
				want.file, hdr, want.role, want.trial, n.Seed, c.Key())
		}
		if len(events) == 0 {
			t.Errorf("%s: no events", want.file)
		}
	}
}
