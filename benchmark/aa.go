package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/stats"
)

// The A/A report reads the result lines run.sh -aa stored, two sets of
// runs of the same code, and judges the benchmark the way its driver does:
// per workload and end-to-end metric, each set's spread (distance between
// the quartiles over the median) must stay within the metric's bound, and
// the second median must not be worse than the first by more than the
// bound. The driver exempts setup_s from the spread rule; this report does
// not, so a row that passes here passes there.

// aaRun is one stored result line.
type aaRun struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// aaReport renders dir/<set>-<workload>-<i>.json (set is A or B) as a
// markdown table on w and reports whether every row passed.
func aaReport(w io.Writer, dir string) (bool, error) {
	values := map[string][]float64{} // "<set>/<workload>/<metric>"
	failed := 0
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return false, err
	}
	sort.Strings(files)
	for _, f := range files {
		parts := strings.SplitN(strings.TrimSuffix(filepath.Base(f), ".json"), "-", 3)
		if len(parts) != 3 {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return false, err
		}
		var run aaRun
		if err := json.Unmarshal(raw, &run); err != nil {
			return false, fmt.Errorf("%s: %w", f, err)
		}
		if !run.Correct || run.Failed > 0 {
			failed++
		}
		for name, m := range run.Metrics {
			key := parts[0] + "/" + parts[1] + "/" + name
			values[key] = append(values[key], m.Value)
		}
	}

	fmt.Fprintf(w, "| workload | metric | bound | median A | q1..q3 A | spread A | median B | q1..q3 B | spread B | B worse by | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	allPass := failed == 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := values["A/"+wl.Name+"/"+m.Name], values["B/"+wl.Name+"/"+m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := stats.Median(a), stats.Median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			worse := (mb - ma) / ma
			if m.Better == higher {
				worse = -worse
			}
			pass := worse <= m.Bound && sa <= m.Bound && sb <= m.Bound
			verdict := "PASS"
			if !pass {
				verdict, allPass = "FAIL", false
			}
			fmt.Fprintf(w, "| %s | %s | %.2f | %.4g | %.4g..%.4g | %.1f%% | %.4g | %.4g..%.4g | %.1f%% | %+.1f%% | %s |\n",
				wl.Name, m.Name, m.Bound, ma, a1, a3, 100*sa, mb, b1, b3, 100*sb, 100*worse, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d runs per set and workload; %d runs reported failed operations.\n", len(values["A/"+workloads[0].Name+"/"+mCellsPerS]), failed)
	return allPass, nil
}
