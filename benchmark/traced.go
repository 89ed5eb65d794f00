package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netem"
	"repro/internal/stacks"
	"repro/internal/stats"
)

// The traced run is separate from the run that reports end-to-end
// metrics: those are measured with tracing off. It has four parts.
//
//  1. A few untraced passes through the facade, for the Go runtime
//     numbers, the executor split and the untraced reference time.
//  2. Each cell re-composed from the layers' public functions with an
//     interposer at every boundary, repeated; layer numbers are the median
//     over repeats.
//  3. The fidelity check: the recomposed trials against core's own.
//  4. Probes for what no boundary inside a trial separates.

const (
	minTracedRepeats = 3
	maxTracedRepeats = 5
)

// traceFile is what a traced run writes to <outDir>/<workload>.trace.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Repeats    int                `json:"repeats"`
	Note       string             `json:"note"`
	Layers     map[string]float64 `json:"layers"`
	Spans      []span             `json:"spans"`
	Aggregates []aggSpan          `json:"aggregates"`
}

func runTraced(w *workload, seed uint64, budget time.Duration, dir string) (*runOutput, error) {
	start := time.Now()

	// Part 1: untraced passes.
	su, err := setUp(w, seed, dir)
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	ck.check(0, &su.Warm, w.sameJournals)
	if err := clearDir(dir); err != nil {
		return nil, err
	}
	passes, err := timedPasses(w, seed, dir, budget/5, 2, ck)
	if err != nil {
		return nil, err
	}
	st := summarize(passes)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	layers := map[string]float64{}
	for _, m := range perLayer {
		layers[m.Name] = 0
	}
	n := float64(st.Cells)
	layers["go.allocs_per_cell"] = st.MedMallocs / n
	layers["go.gc_cycles_per_cell"] = st.GCs / n
	layers["go.gc_pause_ms_per_cell"] = st.PauseMs / n
	layers["go.heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	layers["host.noise_frac"] = st.NoiseFrac
	execSplit(w, passes, layers)

	// Parts 2 and 3: the recomposed cells.
	cells, record, err := tracedCells(w, seed)
	if err != nil {
		return nil, err
	}
	want := map[string]core.CellReport{}
	for _, op := range su.Warm.Ops {
		if op.Cell != nil {
			key := op.Name[strings.Index(op.Name, ":")+1:]
			r := op.Cell.Report
			want[key] = core.CellReport{
				Conformance: r.Conformance, ConformanceOld: r.ConformanceOld, ConformanceT: r.ConformanceT,
				DeltaThroughputMbps: r.DeltaThroughputMbps, DeltaDelayMs: r.DeltaDelayMs, K: r.K,
			}
		}
	}
	refTrials, err := referenceTrials(cells)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	var repeats []map[string]float64
	var cellDurs [][]float64
	var points [][]geom.Point
	fidelityOK, coverageOK := true, true
	for r := 0; r < maxTracedRepeats; r++ {
		if r >= minTracedRepeats && time.Since(start) > budget {
			break
		}
		runtime.GC()
		acc := &layerAcc{}
		cr := &cellRun{rec: rec, acc: acc, dir: dir, record: record}
		name := fmt.Sprintf("traced-%d.jsonl", r)
		if err := cr.openJournal(name); err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		g0, _, n0 := netem.PoolStats()
		durs := make([]float64, len(cells))
		for i, c := range cells {
			t0 := time.Now()
			got, err := cr.cell(i, c)
			durs[i] = time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("traced repeat %d: %w", r, err)
			}
			ck.attempted++
			if got != want[c.Key()] {
				fidelityOK = false
				ck.fault("traced repeat %d %s: recomposed report %+v, sweep reported %+v", r, c.Key(), got, want[c.Key()])
			}
		}
		g1, _, n1 := netem.PoolStats()
		runtime.ReadMemStats(&ms1)
		acc.poolGets, acc.poolNews = g1-g0, n1-n0
		acc.mallocs = ms1.Mallocs - ms0.Mallocs
		if acc.journalBytes, err = cr.closeJournal(name); err != nil {
			return nil, err
		}
		for i, f := range cr.trials {
			if i >= len(refTrials) || f != refTrials[i] {
				fidelityOK = false
			}
		}
		if len(cr.trials) != len(refTrials) {
			fidelityOK = false
		}
		if cov := acc.selfCoverage(); cov < 0.95 || cov > 1.05 {
			coverageOK = false
		}
		repeats = append(repeats, acc.numbers())
		points = cr.points
		cellDurs = append(cellDurs, durs)
		if err := clearDir(dir); err != nil {
			return nil, err
		}
	}
	for name, v := range medianOf(repeats) {
		layers[name] = v
	}

	// trace.overhead_frac: traced over untraced quiet time for the same
	// cells, both as per-op minima.
	tracedQuiet := quietPass(cellDurs)
	untracedQuiet := quietCells(passes, cells)
	layers["trace.overhead_frac"] = ratio(tracedQuiet, untracedQuiet) - 1
	layers["trace.fidelity_ok"] = 0
	if fidelityOK && coverageOK {
		layers["trace.fidelity_ok"] = 1
	}

	// Part 4: probes, sized from what the traced trials saw.
	for name, v := range geomProbes(points) {
		layers[name] = v
	}
	// A many-flow trial does not report its event-queue highwater; two
	// timers per live flow is the floor it cannot be under.
	pending := max(int(layers["sim.pending_highwater"]), 2*int(layers["traffic.peak_active"]))
	layers["sim.null_ns_per_event"] = probeSimNull(pending, 300_000)
	first := cells[0].Net.WithDefaults()
	bps := first.BandwidthMbps * 1e6
	layers["netem.pump_ns_per_pkt"] = probeNetemPump(bps, int(float64(netem.BDPBytes(bps, first.RTT))*first.BufferBDP), 100_000)
	layers["runner.dispatch_us_per_cell"] = probeRunnerDispatch(500)
	layers["runner.journal_verify_us"] = probeJournalVerify(su.Warm.Journals[0])
	layers["report.render_us_per_row"] = probeRender(su.Warm.Summary)
	layers["frame.roundtrip_us"] = probeFrame(su.Warm.Journals[0][:min(len(su.Warm.Journals[0]), 512)])
	if w.twin != "" {
		if err := recordingOverhead(w, seed, dir, passes, cells, layers); err != nil {
			return nil, err
		}
	}

	tf := traceFile{
		Workload: w.Name, Seed: seed, Repeats: len(repeats),
		Note:       "times in ns since the run's recorder started; aggregates are per trial span (field trial = span id)",
		Layers:     layers,
		Spans:      rec.spans,
		Aggregates: rec.aggs,
	}
	js, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, w.Name+".trace.json"), js, 0o644); err != nil {
		return nil, err
	}

	return &runOutput{
		Correct:   ck.failed == 0 && fidelityOK,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics:   layers,
		Info: map[string]any{
			"workload":         w.Name,
			"seed":             seed,
			"untraced_passes":  len(passes),
			"traced_repeats":   len(repeats),
			"traced_cells":     len(cells),
			"failed_ops":       ck.failed,
			"faults":           ck.faults,
			"fidelity_ok":      fidelityOK,
			"coverage_ok":      coverageOK,
			"traced_quiet_s":   tracedQuiet,
			"untraced_quiet_s": untracedQuiet,
			"span_file":        filepath.Join(outDir, w.Name+".trace.json"),
			"layers":           layers,
		},
	}, nil
}

// medianOf takes the per-key median over repeats.
func medianOf(repeats []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(repeats) == 0 {
		return out
	}
	for name := range repeats[0] {
		var v []float64
		for _, r := range repeats {
			v = append(v, r[name])
		}
		out[name] = stats.Median(v)
	}
	return out
}

// quietCells is the untraced per-op-minimum time of the given cells, taken
// from the first leg of each pass that ran them.
func quietCells(passes []passResult, cells []core.SweepCell) float64 {
	var total float64
	for _, c := range cells {
		best := 0.0
		for i := range passes {
			for _, op := range passes[i].Ops {
				if op.Cell != nil && op.Cell.Cell == c.Key() {
					if d := op.Dur.Seconds(); best == 0 || d < best {
						best = d
					}
					break // the first leg that ran this cell: the in-process one
				}
			}
		}
		total += best
	}
	return total
}

// referenceTrials runs core's own trial for every trial the recomposition
// will run, in the same order, and keeps the triple each must reproduce.
func referenceTrials(cells []core.SweepCell) ([]fidelity, error) {
	var out []fidelity
	for _, c := range cells {
		n := c.Net.WithDefaults()
		if c.Traffic != nil {
			res, err := core.RunManyFlowTrial(c.Traffic, n, 0, core.Bounds{}, nil)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", c.Key(), err)
			}
			out = append(out, fidelity{res.Events, res.AggMbps, res.Drops})
			continue
		}
		test, err := core.SpecE(c.Stack, c.CCA)
		if err != nil {
			return nil, err
		}
		ref := core.Flow{Stack: stacks.Reference(), CCA: c.CCA}
		for side := 0; side < 2; side++ {
			a, offset := test, 0
			if side == 1 {
				a, offset = ref, 1000
			}
			for t := 0; t < n.Trials; t++ {
				res, err := core.RunTrialE(a, ref, n, t+offset)
				if err != nil {
					return nil, fmt.Errorf("reference %s: %w", c.Key(), err)
				}
				out = append(out, fidelity{res.Events, res.MeanMbps[0], res.Drops})
			}
		}
	}
	return out, nil
}

// execSplit fills the executor metrics from the untraced passes of a
// multi-leg workload: per-leg quiet time per cell, the overheads against
// the in-process leg, the children's share of CPU and the fabric's
// admission time.
func execSplit(w *workload, passes []passResult, layers map[string]float64) {
	if !w.sameJournals {
		return
	}
	perLeg := map[string][][]float64{}
	cellsIn := map[string]int{}
	var childFrac []float64
	for i := range passes {
		byLeg := map[string][]float64{}
		for _, op := range passes[i].Ops {
			label := op.Name[:strings.Index(op.Name, ":")]
			byLeg[label] = append(byLeg[label], op.Dur.Seconds())
			if i == 0 && op.Cell != nil {
				cellsIn[label]++
			}
		}
		for label, d := range byLeg {
			perLeg[label] = append(perLeg[label], d)
		}
		childFrac = append(childFrac, ratio(passes[i].ChildCPU, passes[i].CPU))
	}
	ms := func(label string) float64 {
		return ratio(quietPass(perLeg[label])*1e3, float64(cellsIn[label]))
	}
	layers["exec.inproc_ms_per_cell"] = ms("inproc")
	layers["exec.isolate_ms_per_cell"] = ms("isolate")
	layers["exec.dist_ms_per_cell"] = ms("dist")
	layers["isolate.overhead_ms_per_cell"] = ms("isolate") - ms("inproc")
	layers["dist.overhead_ms_per_cell"] = ms("dist") - ms("inproc")
	layers["isolate.child_cpu_frac"] = stats.Median(childFrac)
	// A leg's first op runs from the call of RunSweep to the first cell's
	// result. On the fabric that holds the listen, the worker's connect and
	// admission and the first cell; in process, the same cell alone.
	first := func(label string) float64 {
		var v [][]float64
		for _, d := range perLeg[label] {
			v = append(v, d[:1])
		}
		return quietPass(v) * 1e3
	}
	layers["dist.connect_ms"] = first("dist") - first("inproc")
}

// recordingOverhead compares this workload's untraced-by-the-harness
// passes (recording on inside the program) with its twin's (recording
// off) over the cells both run: what the qlog and packet-CSV sinks cost
// end to end.
func recordingOverhead(w *workload, seed uint64, dir string, passes []passResult, cells []core.SweepCell, layers map[string]float64) error {
	twin := findWorkload(w.twin)
	var plain []passResult
	for r := 0; r < 2; r++ {
		pr := runPass(context.Background(), twin, seed, dir, r)
		if pr.Err != nil {
			return fmt.Errorf("twin %s: %w", twin.Name, pr.Err)
		}
		plain = append(plain, pr)
		if err := clearDir(dir); err != nil {
			return err
		}
	}
	layers["recording.overhead_frac"] = ratio(quietCells(passes, cells), quietCells(plain, cells)) - 1
	return nil
}
