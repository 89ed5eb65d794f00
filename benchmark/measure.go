package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	quicbench "repro"
	"repro/internal/stats"
)

// minPasses is the fewest timed passes a run may rest its per-op minimum
// on, however short -seconds is.
const minPasses = 6

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is what a run reports. The contract line carries Correct,
// Attempted, Failed and Metrics; Info goes to stderr and the summary file.
type runOutput struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Info      map[string]any
}

// contractLine renders the object the benchmark contract asks for:
// exactly the catalog's names for this kind of run, no more, no fewer.
func (o *runOutput) contractLine(traced bool) ([]byte, error) {
	units := map[string]string{}
	if traced {
		for _, m := range perLayer {
			units[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			units[m.Name] = m.Unit
		}
	}
	metrics := make(map[string]metricValue, len(o.Metrics))
	for name, v := range o.Metrics {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is not in the catalog", name)
		}
		metrics[name] = metricValue{Value: v, Unit: unit}
	}
	if len(metrics) != len(units) {
		return nil, fmt.Errorf("%d of the catalog's %d metrics measured", len(metrics), len(units))
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics})
}

// emit prints the information block on stderr, stores it beside the span
// files, and prints the contract object as the last line of stdout.
func (o *runOutput) emit(workload string, traced bool) error {
	line, err := o.contractLine(traced)
	if err != nil {
		return err
	}
	info, err := json.MarshalIndent(o.Info, "", "  ")
	if err != nil {
		return err
	}
	suffix := ".run.json"
	if traced {
		suffix = ".trace-run.json"
	}
	if err := os.WriteFile(filepath.Join(outDir, workload+suffix), append(info, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s\n", info)
	_, err = fmt.Printf("%s\n", line)
	return err
}

// setupResult is the outcome of one set-up: the warm-up pass and how long
// the process took to get through it.
type setupResult struct {
	Warm    passResult
	Elapsed time.Duration // process start -> end of warm-up
}

// setUp is everything before the first timed op: inputs from the seed,
// executor construction (both inside the pass runner) and the discarded
// warm-up pass, which fills the pools, faults the heap in and pays every
// lazy initialisation.
func setUp(w *workload, seed uint64, dir string) (setupResult, error) {
	warm := runPass(context.Background(), w, seed, dir, 0)
	if warm.Err != nil {
		return setupResult{}, fmt.Errorf("warm-up pass: %w", warm.Err)
	}
	return setupResult{Warm: warm, Elapsed: time.Since(processStart)}, nil
}

// checker counts attempted and failed ops across passes. A cell fails when
// it is not a valid first-attempt success or when its pass's digest
// differs from pass 0's; a pass fails wholesale when its legs' journals
// were required to match and did not.
type checker struct {
	refDigest string // pass 0's digest; "" until pass 0 is checked
	attempted int
	failed    int
	faults    []string
}

func (c *checker) fault(format string, args ...any) {
	c.failed++
	if len(c.faults) < 20 {
		c.faults = append(c.faults, fmt.Sprintf(format, args...))
	}
}

// check folds one pass into the tally. sameJournals demands byte-identical
// journals across the pass's legs.
func (c *checker) check(pass int, pr *passResult, sameJournals bool) {
	if c.refDigest == "" {
		c.refDigest = pr.Digest
	}
	drift := pr.Digest != c.refDigest
	split := false
	if sameJournals {
		for _, j := range pr.Journals[1:] {
			if !bytes.Equal(j, pr.Journals[0]) {
				split = true
			}
		}
	}
	for i := range pr.Ops {
		op := &pr.Ops[i]
		c.attempted++
		if op.Cell == nil {
			// A render op has no result of its own; it fails with its pass.
			if split {
				c.fault("pass %d: executors' journals differ", pass)
			}
			continue
		}
		switch why := cellFault(op.Cell); {
		case why != "":
			c.fault("pass %d %s: %s", pass, op.Name, why)
		case drift:
			c.fault("pass %d %s: pass digest %.12s differs from pass 0's %.12s", pass, op.Name, pr.Digest, c.refDigest)
		case split:
			c.fault("pass %d %s: executors' journals differ", pass, op.Name)
		}
	}
}

// cells counts the cell ops of a pass (its render ops excluded).
func cells(pr *passResult) int {
	n := 0
	for _, op := range pr.Ops {
		if op.Cell != nil {
			n++
		}
	}
	return n
}

// timedPasses runs passes for budget (to the nearest pass) and atLeast that
// many, with a GC between passes so one pass's garbage is not the next
// one's bill, and removes each pass's files once it has been digested.
func timedPasses(w *workload, seed uint64, dir string, budget time.Duration, atLeast int, ck *checker) ([]passResult, error) {
	var passes []passResult
	start := time.Now()
	another := func() bool {
		n := len(passes)
		if n < atLeast {
			return true
		}
		elapsed := time.Since(start)
		return elapsed+elapsed/time.Duration(2*n) < budget
	}
	for r := 1; another(); r++ {
		runtime.GC()
		pr := runPass(context.Background(), w, seed, dir, r)
		if pr.Err != nil {
			return nil, fmt.Errorf("pass %d: %w", r, pr.Err)
		}
		ck.check(r, &pr, w.sameJournals)
		pr.Journals = nil
		passes = append(passes, pr)
		if err := clearDir(dir); err != nil {
			return nil, err
		}
	}
	return passes, nil
}

// clearDir empties the scratch directory between passes.
func clearDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// passStats condenses timed passes into the estimator's inputs and the
// informational raw-wall statistics.
type passStats struct {
	Cells      int
	QuietS     float64 // sum over ops of the per-op minimum
	MedianS    float64
	Q1S, Q3S   float64
	NoiseFrac  float64 // median_pass_s / quiet_pass_s - 1
	MinCPU     float64 // the cheapest pass's CPU seconds, whole pass
	MedAlloc   float64
	MedMallocs float64
	GCs        float64 // mean per pass
	PauseMs    float64 // mean per pass
}

func summarize(passes []passResult) passStats {
	var st passStats
	st.Cells = cells(&passes[0])
	durs := make([][]float64, len(passes))
	var wall, cpu, alloc, mallocs []float64
	for i := range passes {
		p := &passes[i]
		for _, op := range p.Ops {
			durs[i] = append(durs[i], op.Dur.Seconds())
		}
		wall = append(wall, p.Wall.Seconds())
		cpu = append(cpu, p.CPU)
		alloc = append(alloc, float64(p.Alloc))
		mallocs = append(mallocs, float64(p.Mallocs))
		st.GCs += float64(p.GCs) / float64(len(passes))
		st.PauseMs += float64(p.PauseNs) / 1e6 / float64(len(passes))
	}
	st.QuietS = quietPass(durs)
	// CPU is taken per pass, never per op: a per-op minimum would drop the
	// GC cycles that land in only some passes' copy of an op.
	st.MinCPU = stats.Min(cpu)
	st.MedianS = stats.Median(wall)
	st.Q1S, st.Q3S = quartiles(wall)
	st.NoiseFrac = st.MedianS/st.QuietS - 1
	st.MedAlloc = stats.Median(alloc)
	st.MedMallocs = stats.Median(mallocs)
	return st
}

// runMeasured is the untraced run: set-up, timed passes, the twin check,
// and the five end-to-end metrics.
func runMeasured(w *workload, seed uint64, budget time.Duration, dir string) (*runOutput, error) {
	su, err := setUp(w, seed, dir)
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	ck.check(0, &su.Warm, w.sameJournals)
	su.Warm.Journals = nil
	if err := clearDir(dir); err != nil {
		return nil, err
	}

	passes, err := timedPasses(w, seed, dir, budget, minPasses, ck)
	if err != nil {
		return nil, err
	}
	st := summarize(passes)

	if w.twin != "" {
		if err := checkTwin(w, seed, dir, &su.Warm, ck); err != nil {
			return nil, err
		}
	}

	n := float64(st.Cells)
	out := &runOutput{
		Correct:   ck.failed == 0,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics: map[string]float64{
			mCellsPerS:  n / st.QuietS,
			mCPUPerCell: st.MinCPU / n,
			mAllocMB:    st.MedAlloc / n / 1e6,
			mPeakRSS:    peakRSSMB(),
			mSetupS:     su.Elapsed.Seconds(),
		},
		Info: map[string]any{
			"workload":        w.Name,
			"seed":            seed,
			"passes":          len(passes),
			"ops":             ck.attempted,
			"failed_ops":      ck.failed,
			"faults":          ck.faults,
			"result_digest":   su.Warm.Digest,
			"cells_per_pass":  st.Cells,
			"quiet_pass_s":    st.QuietS,
			"median_pass_s":   st.MedianS,
			"pass_q1_s":       st.Q1S,
			"pass_q3_s":       st.Q3S,
			"host.noise_frac": st.NoiseFrac,
			"gomaxprocs":      runtime.GOMAXPROCS(0),
		},
	}
	return out, nil
}

// checkTwin runs the twin workload once with the same seed and demands
// the same cell reports: recording observes, it never perturbs.
func checkTwin(w *workload, seed uint64, dir string, got *passResult, ck *checker) error {
	twin := findWorkload(w.twin)
	ref := runPass(context.Background(), twin, seed, dir, 0)
	if ref.Err != nil {
		return fmt.Errorf("twin %s: %w", twin.Name, ref.Err)
	}
	if err := clearDir(dir); err != nil {
		return err
	}
	want := map[string]*quicbench.SweepCellResult{}
	for _, op := range ref.Ops {
		if op.Cell != nil {
			want[op.Cell.Cell] = op.Cell
		}
	}
	for _, op := range got.Ops {
		if op.Cell == nil {
			continue
		}
		ck.attempted++
		if ref, ok := want[op.Cell.Cell]; !ok || !reflect.DeepEqual(*ref, *op.Cell) {
			ck.fault("%s differs from twin %s", op.Name, twin.Name)
		}
	}
	return nil
}

// peakRSSMB is max(VmHWM of this process, ru_maxrss of reaped children).
func peakRSSMB() float64 {
	var kb float64
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, _ = strconv.ParseFloat(strings.Fields(rest)[0], 64) // kernel-formatted; 0 falls through to rusage
			}
		}
		f.Close()
	}
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil && float64(ru.Maxrss) > kb {
			kb = float64(ru.Maxrss)
		}
	}
	return kb / 1024
}
