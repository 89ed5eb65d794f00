package report

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Header: []string{"Stack", "Conf", "Conf-T"}}
	tbl.AddRow("quiche", 0.08, 0.55)
	tbl.AddRow("mvfst", 0.0, 0.7)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Stack", "quiche", "0.08", "0.55", "mvfst", "0.70"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("lines = %d, want 4", len(lines))
	}
}

func TestTableColumnsAligned(t *testing.T) {
	tbl := &Table{Header: []string{"A", "B"}}
	tbl.AddRow("longvalue", 1.0)
	tbl.AddRow("x", 2.0)
	var buf bytes.Buffer
	tbl.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// The second column should start at the same offset in both data rows.
	i1 := strings.Index(lines[2], "1.00")
	i2 := strings.Index(lines[3], "2.00")
	if i1 != i2 {
		t.Fatalf("columns misaligned:\n%s", buf.String())
	}
}

func TestHeatmapRender(t *testing.T) {
	h := NewHeatmap("Conformance", []string{"cubic", "bbr"}, []string{"quiche", "mvfst"})
	h.Values[0][0] = 0.92
	h.Values[0][1] = 0.15
	// [1][0] left NaN (missing implementation), [1][1] set.
	h.Values[1][1] = 0.55
	var buf bytes.Buffer
	if err := h.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Conformance", "quiche", "mvfst", "0.92", "0.15", "0.55", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("heatmap missing %q:\n%s", want, out)
		}
	}
}

// A heatmap tells three cell kinds apart: a pair that does not exist ("-"),
// a pair whose value is undefined ("n/a", its reason listed once under the
// map), and a measured value, zero included.
func TestHeatmapUndefinedCells(t *testing.T) {
	h := NewHeatmap("", []string{"r"}, []string{"missing", "undef", "undef2", "zero"})
	reason := errors.New("reference envelope: degenerate")
	h.Errs[0][1] = reason
	h.Errs[0][2] = reason
	h.Values[0][3] = 0
	var buf bytes.Buffer
	if err := h.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header, row and one reason line:\n%s", len(lines), buf.String())
	}
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "r - n/a n/a ░0.00" {
		t.Fatalf("row = %q, want cells -, n/a, n/a, ░0.00", got)
	}
	if want := "n/a ×2: reference envelope: degenerate"; lines[2] != want {
		t.Fatalf("reason line = %q, want %q", lines[2], want)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestHeatmapRenderReportsWriteError(t *testing.T) {
	h := NewHeatmap("t", []string{"r"}, []string{"c"})
	if err := h.Render(failWriter{}); err == nil || err.Error() != "disk full" {
		t.Fatalf("Render to a failing writer = %v, want the write error", err)
	}
}

// An undefined result keeps its label, and its reason spans the metric
// columns without widening the first of them.
func TestTableUndefinedRowSpans(t *testing.T) {
	tbl := &Table{Header: []string{"Stack", "Conf", "Conf-T"}}
	tbl.AddRow("quiche", 0.08, 0.55)
	tbl.AddResult(errors.New("reference envelope: degenerate"), 1, "msquic", 0.0, 0.0)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "Stack   Conf  Conf-T" {
		t.Fatalf("header widened by the spanning cell: %q", lines[0])
	}
	if lines[3] != "msquic  n/a (reference envelope: degenerate)" {
		t.Fatalf("undefined row = %q", lines[3])
	}
}

func TestHeatmapShading(t *testing.T) {
	if shade(0.1) != "░" || shade(0.3) != "▒" || shade(0.5) != "▓" || shade(0.9) != "█" {
		t.Fatal("shade thresholds wrong")
	}
	if shade(math.NaN()) != " " {
		t.Fatal("NaN shade wrong")
	}
}

func TestNewHeatmapAllNaN(t *testing.T) {
	h := NewHeatmap("x", []string{"a"}, []string{"b"})
	if v := h.Values[0][0]; v == v {
		t.Fatal("fresh heatmap cells should be NaN")
	}
}

func TestSVGPlotRender(t *testing.T) {
	p := &SVGPlot{Title: "quiche CUBIC <PE>"}
	pts := []geom.Point{{X: 10, Y: 5}, {X: 12, Y: 8}, {X: 14, Y: 6}}
	hull := geom.ConvexHull(pts)
	p.AddSeries("reference", pts, []geom.Polygon{hull})
	p.AddSeries("test", []geom.Point{{X: 20, Y: 15}}, nil)
	var buf bytes.Buffer
	if err := p.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "polygon", "circle", "reference", "test", "&lt;PE&gt;", "Delay (ms)", "Throughput (Mbps)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
}

func TestSVGPlotEmpty(t *testing.T) {
	p := &SVGPlot{}
	var buf bytes.Buffer
	if err := p.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("empty plot should still render a document")
	}
}

func TestSVGSeriesColorsCycle(t *testing.T) {
	p := &SVGPlot{}
	for i := 0; i < len(palette)+2; i++ {
		p.AddSeries("s", nil, nil)
	}
	if p.series[0].color != p.series[len(palette)].color {
		t.Fatal("palette should cycle")
	}
	if p.series[0].color == p.series[1].color {
		t.Fatal("adjacent series share a color")
	}
}

func TestXMLEscape(t *testing.T) {
	if xmlEscape("a<b>&c") != "a&lt;b&gt;&amp;c" {
		t.Fatal("escape wrong")
	}
}
