package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/runner"
)

func sweepRows() []SweepRow {
	return []SweepRow{
		{Cell: "quicgo/cubic", Outcome: runner.OutcomeOK, Attempts: 1,
			Conf: 0.91, ConfT: 0.97, DTputMbps: -0.4, DDelayMs: 1.2, K: 1},
		{Cell: "lsquic/cubic", Outcome: runner.OutcomeRetried, Attempts: 2,
			Conf: 0.82, ConfT: 0.9, DTputMbps: 0.1, DDelayMs: -0.3, K: 2},
		{Cell: "xquic/bbr", Outcome: runner.OutcomeFailed, Attempts: 3,
			Err: "trial xquic/bbr attempt 3 timeout: deadline\nstack trace"},
		{Cell: "quiche/cubic", Outcome: runner.OutcomeSkipped, Attempts: 0,
			Err: "interrupted before attempt 1"},
	}
}

func TestSweepTableAnnotations(t *testing.T) {
	var buf bytes.Buffer
	if err := SweepTable(sweepRows()).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ok*", "FAIL", "skip", "0.91", "interrupted before attempt 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stack trace") {
		t.Errorf("multi-line error leaked past the first line:\n%s", out)
	}
	// The row names the cell, so the runner's "trial <key> attempt N
	// <kind>: " prefix is dropped and the cause shows in full.
	if !strings.Contains(out, "  deadline\n") || strings.Contains(out, "trial xquic/bbr") {
		t.Errorf("FAIL row does not end in its bare cause:\n%s", out)
	}
	// Failed cells must not render metrics.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "FAIL") && !strings.Contains(line, "-") {
			t.Errorf("failed row renders metrics: %q", line)
		}
	}
}

func TestSweepSummary(t *testing.T) {
	got := SweepSummary(sweepRows(), false)
	want := "4 cells: 1 ok, 1 retried (ok*), 1 failed, 1 skipped"
	if got != want {
		t.Errorf("SweepSummary = %q, want %q", got, want)
	}
	if got := SweepSummary(sweepRows()[:1], true); !strings.Contains(got, "interrupted") {
		t.Errorf("interrupted summary %q missing marker", got)
	}
	if got := SweepSummary(nil, false); got != "0 cells" {
		t.Errorf("empty summary = %q", got)
	}
}

func TestRenderSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSweep(&buf, sweepRows(), true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cell") || !strings.Contains(out, "4 cells:") {
		t.Errorf("RenderSweep output incomplete:\n%s", out)
	}
}
