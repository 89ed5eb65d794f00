package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	quicbench "repro"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/pe"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/traffic"
)

// tracedCells expands a workload's legs into the cells the traced run
// recomposes: every distinct cell once, whatever executor the leg names.
func tracedCells(w *workload, seed uint64) ([]core.SweepCell, bool, error) {
	var out []core.SweepCell
	seen := map[string]bool{}
	record := false
	for _, lg := range w.legs(seed) {
		record = record || lg.traced
		cells, err := legCells(lg.opts)
		if err != nil {
			return nil, false, err
		}
		for _, c := range cells {
			if !seen[c.Key()] {
				seen[c.Key()] = true
				out = append(out, c)
			}
		}
	}
	return out, record, nil
}

// legCells is the grid expansion quicbench.RunSweep applies to its options.
func legCells(o quicbench.SweepOptions) ([]core.SweepCell, error) {
	nets := make([]core.Network, len(o.Networks))
	for i, n := range o.Networks {
		nets[i] = core.Network{
			BandwidthMbps: n.BandwidthMbps, RTT: sim.Duration(n.RTT), BufferBDP: n.BufferBDP,
			Duration: sim.Duration(n.Duration), Trials: n.Trials, Seed: n.Seed, Wild: n.Wild,
		}
	}
	if len(o.TrafficSpec) > 0 {
		spec, err := traffic.ParseSpec(o.TrafficSpec)
		if err != nil {
			return nil, err
		}
		return core.ManyFlowCells(spec, nets)
	}
	names := o.Stacks
	if len(names) == 0 {
		for _, s := range stacks.QUICStacks() {
			names = append(names, s.Name)
		}
	}
	ccas := stacks.AllCCAs
	if len(o.CCAs) > 0 {
		ccas = nil
		for _, c := range o.CCAs {
			ccas = append(ccas, stacks.CCA(c))
		}
	}
	return core.GridCells(names, ccas, nets)
}

// cellRun recomposes cells under one recorder and folds what the trials
// counted into one repeat's accumulator.
type cellRun struct {
	rec     *recorder
	acc     *layerAcc
	dir     string // scratch: journal and recording files
	record  bool   // attach the qlog + packet-CSV sinks (grid_traced)
	journal *runner.Journal
	// trials keeps each trial's fidelity triple, in execution order.
	trials []fidelity
	// points keeps the first cell's test-side point sets, which size the
	// geometry probes.
	points [][]geom.Point
}

// fidelity is what a recomposed trial must reproduce.
type fidelity struct {
	Events   uint64
	MeanMbps float64 // flow 0 (two-flow) or aggregate (many-flow)
	Drops    uint64
}

// cell mirrors core.runCell: the conformance pipeline for one cell, then
// the journal append the runner would make for it.
func (cr *cellRun) cell(op int, c core.SweepCell) (core.CellReport, error) {
	id := cr.rec.begin("core.cell", op)
	defer func() { cr.acc.cellNs += int64(cr.rec.end(id)) }()
	cr.acc.cells++

	var rep core.CellReport
	var err error
	if c.Traffic != nil {
		rep, err = cr.manyFlowCell(op, c)
	} else {
		rep, err = cr.twoFlowCell(op, c)
	}
	if err != nil {
		return rep, fmt.Errorf("cell %s: %w", c.Key(), err)
	}
	return rep, cr.append(op, c, rep)
}

// twoFlowCell mirrors core.conformanceImpaired on the clean path: Trials
// test trials against the kernel reference, Trials reference trials with
// the trial index offset by 1000, then the PE evaluation.
func (cr *cellRun) twoFlowCell(op int, c core.SweepCell) (core.CellReport, error) {
	test, err := core.SpecE(c.Stack, c.CCA)
	if err != nil {
		return core.CellReport{}, err
	}
	ref := core.Flow{Stack: stacks.Reference(), CCA: c.CCA}
	n := c.Net.WithDefaults()
	sets := [2][][]geom.Point{make([][]geom.Point, n.Trials), make([][]geom.Point, n.Trials)}
	for side, role := range []string{"test", "ref"} {
		a, offset := test, 0
		if side == 1 {
			a, offset = ref, 1000
		}
		for t := 0; t < n.Trials; t++ {
			pts, err := cr.trial(op, a, ref, n, role, t, t+offset, c.Key())
			if err != nil {
				return core.CellReport{}, fmt.Errorf("%s trial %d: %w", role, t, err)
			}
			sets[side][t] = pts
		}
	}
	if cr.points == nil {
		cr.points = sets[0]
	}
	r, err := cr.evaluate(op, sets[0], sets[1], n.Seed)
	if err != nil {
		return core.CellReport{}, err
	}
	return cellReport(r), nil
}

// cellReport projects a PE report onto what a sweep cell journals.
func cellReport(r pe.Report) core.CellReport {
	return core.CellReport{
		Conformance: r.Conformance, ConformanceOld: r.ConformanceOld, ConformanceT: r.ConformanceT,
		DeltaThroughputMbps: r.DeltaThroughputMbps, DeltaDelayMs: r.DeltaDelayMs, K: r.K,
	}
}

// trial runs one recomposed two-flow trial and extracts flow 0's points.
func (cr *cellRun) trial(op int, a, b core.Flow, n core.Network, role string, idx, trial int, cell string) ([]geom.Point, error) {
	id := cr.rec.begin("core.trial", op)
	h := newHot(true)
	var rec *recording
	if cr.record {
		fid := cr.rec.begin("trace.files", op)
		var err error
		rec, err = openRecording(filepath.Join(cr.dir, "rec"), role, idx, trial, cell, n.Seed)
		cr.acc.recFilesNs += int64(cr.rec.end(fid))
		if err != nil {
			cr.rec.end(id)
			return nil, err
		}
	}
	out, err := recomposeTrial(a, b, n, trial, h, rec)
	if rec != nil {
		fid := cr.rec.begin("trace.files", op)
		q, p, cerr := rec.close()
		cr.acc.recFilesNs += int64(cr.rec.end(fid))
		if err == nil {
			err = cerr
		}
		cr.acc.qlogBytes += q
		cr.acc.csvBytes += p
	}
	if err != nil {
		cr.rec.end(id)
		return nil, err
	}
	if h.depth != 0 {
		panic("benchmark: unbalanced per-packet spans") // a harness bug, never input
	}
	cr.rec.attach(id, h)
	cr.acc.addTrial(out, h)
	cr.trials = append(cr.trials, fidelity{out.Events, out.MeanMbps[0], out.Drops})

	pid := cr.rec.begin("metrics.points", op)
	pts := metrics.Points(out.Traces[0], metrics.SampleOptions{RunDuration: n.Duration, BaseRTT: n.RTT})
	cr.acc.pointsNs += int64(cr.rec.end(pid))
	cr.acc.trialNs += int64(cr.rec.end(id))
	return pts, nil
}

// evaluate mirrors pe.EvaluateE call for call, with a span around each.
func (cr *cellRun) evaluate(op int, test, ref [][]geom.Point, seed uint64) (pe.Report, error) {
	id := cr.rec.begin("pe.evaluate", op)
	defer func() {
		cr.acc.peEvalNs += int64(cr.rec.end(id))
		cr.acc.peEvals++
	}()
	span := func(name string, total *int64, count *int64, fn func()) {
		s := cr.rec.begin(name, op)
		fn()
		*total += int64(cr.rec.end(s))
		*count++
	}
	for _, t := range test {
		cr.acc.pePoints += int64(len(t))
	}
	cr.acc.peEnvelopes++

	opts := pe.Options{Seed: seed}
	var testEnv, refEnv, oldTest, oldRef *pe.Envelope
	var terr, rerr error
	span("pe.build", &cr.acc.peBuildNs, &cr.acc.peBuilds, func() { testEnv, terr = pe.BuildE(test, opts) })
	span("pe.build", &cr.acc.peBuildNs, &cr.acc.peBuilds, func() { refEnv, rerr = pe.BuildE(ref, opts) })
	span("pe.build_old", &cr.acc.peOldNs, &cr.acc.peOlds, func() { oldTest, oldRef = pe.BuildOld(test), pe.BuildOld(ref) })
	r := pe.Report{K: testEnv.K}
	span("pe.conformance", &cr.acc.peConfNs, &cr.acc.peConfs, func() { r.Conformance = pe.Conformance(testEnv, refEnv) })
	span("pe.conformance", &cr.acc.peConfNs, &cr.acc.peConfs, func() { r.ConformanceOld = pe.Conformance(oldTest, oldRef) })
	span("pe.conformance_t", &cr.acc.peConfTNs, &cr.acc.peConfTs, func() { r.TranslationResult = pe.ConformanceT(testEnv, refEnv) })
	if r.ConformanceT < r.Conformance {
		r.ConformanceT, r.DeltaThroughputMbps, r.DeltaDelayMs = r.Conformance, 0, 0
	}
	if terr != nil {
		return r, fmt.Errorf("test envelope: %w", terr)
	}
	if rerr != nil {
		return r, fmt.Errorf("reference envelope: %w", rerr)
	}
	return r, nil
}

// append journals the cell the way the runner does (the hash field, which
// only resume reads, is left empty).
func (cr *cellRun) append(op int, c core.SweepCell, rep core.CellReport) error {
	res, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	id := cr.rec.begin("runner.journal_append", op)
	err = cr.journal.Append(runner.Record{Key: c.Key(), Seed: c.Net.WithDefaults().Seed, Outcome: runner.OutcomeOK, Attempts: 1, Result: res})
	cr.acc.journalNs += int64(cr.rec.end(id))
	cr.acc.journalAppends++
	return err
}

// manyFlowCell mirrors core.manyFlowCell for Trials = 1: one run of the
// population with a timed controller behind every flow, per-cohort and
// aggregate PE evaluation against the reference cohort.
func (cr *cellRun) manyFlowCell(op int, c core.SweepCell) (core.CellReport, error) {
	spec := c.Traffic
	n := c.Net.WithDefaults()
	if n.Trials != 1 {
		return core.CellReport{}, fmt.Errorf("many-flow recomposition handles 1 trial, not %d", n.Trials)
	}
	id := cr.rec.begin("core.trial", op)
	h := newHot(true)
	res, pools, err := recomposeManyFlow(spec, n, 0, h)
	if err != nil {
		cr.rec.end(id)
		return core.CellReport{}, err
	}
	cr.rec.attach(id, h)
	cr.acc.addManyFlow(res, pools, h)
	cr.trials = append(cr.trials, fidelity{res.Events, res.AggMbps, res.Drops})
	cr.acc.trialNs += int64(cr.rec.end(id))

	refIdx := -1
	for i, co := range spec.Cohorts {
		if co.Reference && refIdx < 0 {
			refIdx = i
		}
	}
	if refIdx < 0 {
		return core.CellReport{}, fmt.Errorf("%w: no reference cohort", core.ErrBadTraffic)
	}
	refTrials := [][]geom.Point{res.Cohorts[refIdx].Points}
	var agg []geom.Point
	for i, co := range res.Cohorts {
		if co.Reference {
			continue
		}
		agg = append(agg, co.Points...)
		if i != refIdx {
			// A sparse cohort may lack the samples for an envelope of its
			// own; core degrades the breakdown and so does the harness.
			_, _ = cr.evaluate(op, [][]geom.Point{co.Points}, refTrials, n.Seed)
		}
	}
	if cr.points == nil {
		cr.points = [][]geom.Point{agg}
	}
	r, err := cr.evaluate(op, [][]geom.Point{agg}, refTrials, n.Seed)
	if err != nil {
		return core.CellReport{}, fmt.Errorf("aggregate envelope: %w", err)
	}
	return cellReport(r), nil
}

// poolSizes is the traffic engine's free-list census after a run.
type poolSizes struct{ Flows, Senders, Receivers int }

// recomposeManyFlow mirrors core.RunManyFlowTrial with a timed controller
// behind every flow. The traffic engine builds its own topology, so the
// controller factory is the one boundary the harness can reach from
// outside; everything else in Engine.Run is the root span's self time.
func recomposeManyFlow(spec *traffic.Spec, n core.Network, trial int, h *hot) (*traffic.Result, poolSizes, error) {
	cohorts, err := core.ResolveCohorts(spec)
	if err != nil {
		return nil, poolSizes{}, err
	}
	for i := range cohorts {
		inner := cohorts[i].NewController
		cohorts[i].NewController = func() cc.Controller { return wrapCC(inner(), h) }
	}
	var identity []string
	for _, c := range spec.Cohorts {
		identity = append(identity, "manyflow", c.Name, c.Stack, c.CCA)
	}
	bps := n.BandwidthMbps * 1e6
	eng, err := traffic.New(traffic.Config{
		Spec:    *spec,
		Cohorts: cohorts,
		Net: traffic.NetConfig{
			BottleneckBps: bps,
			BaseRTT:       n.RTT,
			QueueBytes:    int(float64(netem.BDPBytes(bps, n.RTT)) * n.BufferBDP),
			Jitter:        n.RTT / 200,
		},
		Duration: n.Duration,
		Seed:     trialSeed(n, trial, identity...),
	})
	if err != nil {
		return nil, poolSizes{}, fmt.Errorf("manyflow trial %d: %w", trial, err)
	}
	h.enter(kSimRun)
	res, err := eng.Run()
	h.exit()
	var ps poolSizes
	ps.Flows, ps.Senders, ps.Receivers = eng.PoolSizes()
	eng.Release()
	return res, ps, err
}

// openJournal starts the repeat's journal in the scratch directory.
func (cr *cellRun) openJournal(name string) error {
	j, err := runner.OpenJournal(filepath.Join(cr.dir, name), false)
	cr.journal = j
	return err
}

// closeJournal closes the repeat's journal and returns its size.
func (cr *cellRun) closeJournal(name string) (int64, error) {
	if err := cr.journal.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(filepath.Join(cr.dir, name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
