package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/runner"
)

// SweepRow is one rendered cell of a supervised sweep: its identity, the
// supervised outcome, and — for cells that completed — the §3 metric set.
type SweepRow struct {
	Cell     string
	Outcome  runner.Outcome
	Attempts int
	// Metrics; meaningful only when the outcome is ok or retried.
	Conf      float64
	ConfT     float64
	DTputMbps float64
	DDelayMs  float64
	K         int
	// Err is the typed failure text for failed/skipped cells.
	Err string
	// Cohorts, when non-empty, is the per-cohort breakdown of a many-flow
	// cell, rendered as a detail table under the main sweep table.
	Cohorts []CohortRow
}

// CohortRow is one cohort of a many-flow cell: PE metrics against the
// reference cohort plus workload accounting. Reference cohorts render "-"
// metrics (they define the envelope others are measured against).
type CohortRow struct {
	Name      string
	Reference bool
	Conf      float64
	ConfT     float64
	DTputMbps float64
	DDelayMs  float64
	K         int
	Flows     int64
	Completed int64
	FCTms     float64
	Mbps      float64
	// Jain is Jain's fairness index over the cohort's window throughput
	// samples (rendered for reference cohorts too — fairness is
	// accounting, not conformance).
	Jain float64
}

// CohortTable builds the per-cohort detail table of one many-flow cell.
func CohortTable(rows []CohortRow) *Table {
	t := &Table{Header: []string{
		"cohort", "conf", "conf-T", "dTput", "dDelay", "K", "flows", "done", "fct-ms", "mbps", "jain",
	}}
	for _, r := range rows {
		if r.Reference {
			t.AddRow(r.Name+" (ref)", "-", "-", "-", "-", "-",
				r.Flows, r.Completed, r.FCTms, r.Mbps, r.Jain)
			continue
		}
		t.AddRow(r.Name, r.Conf, r.ConfT, r.DTputMbps, r.DDelayMs, r.K,
			r.Flows, r.Completed, r.FCTms, r.Mbps, r.Jain)
	}
	return t
}

// completed reports whether the row carries metrics.
func (r SweepRow) completed() bool {
	return r.Outcome == runner.OutcomeOK || r.Outcome == runner.OutcomeRetried
}

// outcomeMark renders an outcome as a table annotation: retried cells are
// flagged "ok*" so partial renders show which results survived a retry, and
// failures stand out at a glance.
func outcomeMark(o runner.Outcome) string {
	switch o {
	case runner.OutcomeOK:
		return "ok"
	case runner.OutcomeRetried:
		return "ok*"
	case runner.OutcomeFailed:
		return "FAIL"
	case runner.OutcomeSkipped:
		return "skip"
	}
	return string(o)
}

// SweepTable builds the outcome-annotated table of a (possibly partial)
// sweep. Cells without results render "-" metrics and carry their error.
func SweepTable(rows []SweepRow) *Table {
	t := &Table{Header: []string{
		"cell", "out", "att", "conf", "conf-T", "dTput", "dDelay", "K", "err",
	}}
	for _, r := range rows {
		if r.completed() {
			t.AddRow(r.Cell, outcomeMark(r.Outcome), r.Attempts,
				r.Conf, r.ConfT, r.DTputMbps, r.DDelayMs, r.K, "")
			continue
		}
		t.AddRow(r.Cell, outcomeMark(r.Outcome), r.Attempts,
			"-", "-", "-", "-", "-", failCause(r.Cell, r.Err))
	}
	return t
}

// failCause is the first line of a cell's error, without the "trial <key>
// attempt N <kind>: " prefix the runner puts on a failed attempt: the row
// already names the cell, and the cause is what the reader needs.
func failCause(cell, err string) string {
	if rest, ok := strings.CutPrefix(err, "trial "+cell+" attempt "); ok {
		if _, cause, ok := strings.Cut(rest, ": "); ok {
			err = cause
		}
	}
	line, _, _ := strings.Cut(err, "\n")
	return line
}

// SweepSummary renders the one-line outcome tally of a sweep, e.g.
// "6 cells: 4 ok, 1 retried (ok*), 1 failed". Outcomes with zero cells are
// omitted; "interrupted" is appended when the sweep was cancelled mid-run.
func SweepSummary(rows []SweepRow, interrupted bool) string {
	counts := map[runner.Outcome]int{}
	for _, r := range rows {
		counts[r.Outcome]++
	}
	noun := "cells"
	if len(rows) == 1 {
		noun = "cell"
	}
	s := fmt.Sprintf("%d %s:", len(rows), noun)
	for _, o := range []struct {
		outcome runner.Outcome
		label   string
	}{
		{runner.OutcomeOK, "ok"},
		{runner.OutcomeRetried, "retried (ok*)"},
		{runner.OutcomeFailed, "failed"},
		{runner.OutcomeSkipped, "skipped"},
	} {
		if n := counts[o.outcome]; n > 0 {
			s += fmt.Sprintf(" %d %s,", n, o.label)
		}
	}
	s = s[:len(s)-1] // either the trailing comma or the colon of "0 cells:"
	if interrupted {
		s += " — interrupted, resume with the same checkpoint"
	}
	return s
}

// RenderSweep writes the annotated table followed by the summary line.
func RenderSweep(w io.Writer, rows []SweepRow, interrupted bool) error {
	if err := SweepTable(rows).Render(w); err != nil {
		return err
	}
	for _, r := range rows {
		if len(r.Cohorts) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "\ncohorts of %s:\n", r.Cell); err != nil {
			return err
		}
		if err := CohortTable(r.Cohorts).Render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n%s\n", SweepSummary(rows, interrupted))
	return err
}
