package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/geom"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the catalog (`-catalog`); this keeps a
// hand edit of either side from going unnoticed.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var got benchmarkFile
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := catalogFile(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalog; regenerate it with `go run ./benchmark -catalog > BENCHMARK.json`\n got: %+v\nwant: %+v", got, want)
	}
}

func TestCatalogLimitsAndNames(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", runSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		name("workload", w.Name)
		wl[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
		if w.twin != "" && findWorkload(w.twin) == nil {
			t.Errorf("workload %s: unknown twin %q", w.Name, w.twin)
		}
	}
	e2e := map[string]bool{}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end metric", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		// The widest bound each metric may carry: a noisy metric is met by a
		// better estimator, never by a wider bound.
		widest := map[string]float64{mCellsPerS: 0.10, mCPUPerCell: 0.10, mAllocMB: 0.05, mPeakRSS: 0.10, mSetupS: 0.20}
		if m.Bound <= 0 || m.Bound > widest[m.Name] {
			t.Errorf("metric %s: bound %g outside (0, %g]", m.Name, m.Bound, widest[m.Name])
		}
		if m.Name == mSetupS {
			setup = m.Unit == "s" && m.Better == lower
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g > %g", o.Name, o.Bound, m.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error(`one end-to-end metric must be setup_s with unit "s", lower is better`)
	}

	// Every per-layer metric says which end-to-end metric it should move and
	// on which workloads, or says "none" by naming neither.
	for _, m := range perLayer {
		name("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Layer == "" {
			t.Errorf("metric %s names no layer", m.Name)
		}
		if m.Moves == "" {
			if len(m.On) != 0 {
				t.Errorf("metric %s predicts no end-to-end metric but names workloads %v", m.Name, m.On)
			}
			continue
		}
		if !e2e[m.Moves] {
			t.Errorf("metric %s should move %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		if len(m.On) == 0 {
			t.Errorf("metric %s should move %s on no workload", m.Name, m.Moves)
		}
		for _, w := range m.On {
			if !wl[w] {
				t.Errorf("metric %s names unknown workload %q", m.Name, w)
			}
		}
	}
}

// Everything the traced run can compute must be a catalog name: emit
// refuses anything else at run time, this finds it at test time.
func TestComputedLayerMetricsAreInCatalog(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	check := func(src string, m map[string]float64) {
		t.Helper()
		for name := range m {
			if !known[name] {
				t.Errorf("%s computes %q, which is not in the catalog", src, name)
			}
		}
	}
	check("two-flow numbers", (&layerAcc{cells: 1, trials: 1}).numbers())
	check("many-flow numbers", (&layerAcc{cells: 1, trials: 1, mfTrials: 1}).numbers())
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 5}, {X: 3, Y: 2}, {X: 4, Y: 6}, {X: 5, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 4}, {X: 4, Y: 3}}
	check("geometry probes", geomProbes([][]geom.Point{pts}))
	layers := map[string]float64{}
	execSplit(findWorkload(wlExecSeam), []passResult{{Ops: []opSample{{Name: "inproc:x"}}}}, layers)
	check("executor split", layers)
}

func TestContractLineRefusesNamesOutsideCatalog(t *testing.T) {
	out := &runOutput{Metrics: map[string]float64{}}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = 1
	}
	if _, err := out.contractLine(false); err != nil {
		t.Errorf("a complete end-to-end set was refused: %v", err)
	}
	out.Metrics["made_up"] = 1
	if _, err := out.contractLine(false); err == nil {
		t.Error("a metric outside the catalog was printed")
	}
	delete(out.Metrics, "made_up")
	delete(out.Metrics, mSetupS)
	if _, err := out.contractLine(false); err == nil {
		t.Error("a run without setup_s was printed")
	}
}

// -seed chooses the inputs of every workload, and of the pinned cells of
// none: those always do the same work.
func TestSeedMovesSampledCellsOnly(t *testing.T) {
	keys := func(w *workload, seed uint64) map[string][]string {
		out := map[string][]string{}
		for _, lg := range w.legs(seed) {
			cells, err := legCells(lg.opts)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, c := range cells {
				out[lg.label] = append(out[lg.label], c.Key())
			}
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		one, two := keys(w, 1), keys(w, 2)
		if reflect.DeepEqual(one, two) {
			t.Errorf("%s runs the same cells on seeds 1 and 2", w.Name)
		}
		if !reflect.DeepEqual(one, keys(w, 1)) {
			t.Errorf("%s: the same seed gave different cells", w.Name)
		}
		for label, cells := range one {
			seen := map[string]bool{}
			for _, k := range cells {
				if seen[k] {
					t.Errorf("%s runs %s twice in leg %q", w.Name, k, label)
				}
				seen[k] = true
			}
		}
	}
	big := findWorkload(wlGridBigBDP)
	one, two := keys(big, 1), keys(big, 2)
	for _, label := range []string{"deep", "cliff"} {
		if len(one[label]) == 0 || !reflect.DeepEqual(one[label], two[label]) {
			t.Errorf("%s leg %q is pinned, yet seeds 1 and 2 give %v and %v", big.Name, label, one[label], two[label])
		}
	}
}
