// Package report renders experiment results the way the paper presents
// them: aligned ASCII tables (Tables 3/4), conformance heatmaps
// (Figs. 6, 11-13), and SVG scatter/hull plots of Performance Envelopes
// (Figs. 1-3, 7-10, 14-15). A value that cannot be defined — a degenerate
// envelope, an aborted trial — renders as "n/a" with its reason, never as a
// number.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// NA renders an undefined value with the reason it is undefined.
func NA(err error) string { return "n/a (" + err.Error() + ")" }

// Table is a simple aligned-column text table. A row shorter than the
// header ends in a cell that spans the remaining columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddResult appends a row of cells whose first labels cells name what was
// measured. When err is set the measurement is undefined: the row keeps the
// labels and ends in one spanning cell that gives the reason.
func (t *Table) AddResult(err error, labels int, cells ...any) {
	if err != nil {
		cells = append(cells[:labels:labels], NA(err))
	}
	t.AddRow(cells...)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(row) < len(widths) && i == len(row)-1 {
				break // a spanning cell does not widen its column
			}
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		return sb.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// Heatmap renders a labelled matrix of values in [0, 1] as text, using
// shading characters plus the numeric value, approximating the paper's
// conformance and throughput-ratio heatmaps.
type Heatmap struct {
	Title     string
	RowLabels []string
	ColLabels []string
	// Values[r][c]; NaN cells (pairs that do not exist, such as a CCA a
	// stack does not implement) render as "-".
	Values [][]float64
	// Errs[r][c], when non-nil, marks a cell whose value is undefined: it
	// renders as "n/a", and each distinct reason is listed once under the
	// map.
	Errs [][]error
}

// shade maps a value in [0,1] to a block character.
func shade(v float64) string {
	switch {
	case v != v: // NaN
		return " "
	case v < 0.2:
		return "░"
	case v < 0.4:
		return "▒"
	case v < 0.6:
		return "▓"
	default:
		return "█"
	}
}

// Render writes the heatmap, followed by one line per distinct reason
// behind its "n/a" cells, and returns the write error, if any.
func (h *Heatmap) Render(w io.Writer) error {
	var b strings.Builder
	if h.Title != "" {
		b.WriteString(h.Title + "\n")
	}
	rowW := 0
	for _, l := range h.RowLabels {
		if len(l) > rowW {
			rowW = len(l)
		}
	}
	colW := 6
	for _, l := range h.ColLabels {
		if len(l) > colW {
			colW = len(l)
		}
	}
	// Header row.
	fmt.Fprintf(&b, "%*s", rowW, "")
	for _, l := range h.ColLabels {
		fmt.Fprintf(&b, " %*s", colW, l)
	}
	b.WriteString("\n")
	var reasons []string
	count := map[string]int{}
	for r, label := range h.RowLabels {
		fmt.Fprintf(&b, "%*s", rowW, label)
		for c := range h.ColLabels {
			v := h.Values[r][c]
			cell := "-"
			if r < len(h.Errs) && c < len(h.Errs[r]) && h.Errs[r][c] != nil {
				cell = "n/a"
				reason := h.Errs[r][c].Error()
				if count[reason] == 0 {
					reasons = append(reasons, reason)
				}
				count[reason]++
			} else if v == v {
				cell = fmt.Sprintf("%s%.2f", shade(v), v)
			}
			fmt.Fprintf(&b, " %*s", colW, cell)
		}
		b.WriteString("\n")
	}
	for _, reason := range reasons {
		fmt.Fprintf(&b, "n/a ×%d: %s\n", count[reason], reason)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// NewHeatmap allocates a heatmap with all cells set to NaN and no
// undefined cells.
func NewHeatmap(title string, rows, cols []string) *Heatmap {
	vals := make([][]float64, len(rows))
	errs := make([][]error, len(rows))
	for i := range vals {
		vals[i] = make([]float64, len(cols))
		errs[i] = make([]error, len(cols))
		for j := range vals[i] {
			vals[i][j] = math.NaN()
		}
	}
	return &Heatmap{Title: title, RowLabels: rows, ColLabels: cols, Values: vals, Errs: errs}
}
