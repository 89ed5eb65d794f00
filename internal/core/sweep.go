package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/traffic"
)

// SweepCell identifies one unit of a conformance sweep: an implementation
// (stack, CCA) measured under one network configuration. Cells are the
// supervised runner's trial granularity — a panicking or wedged cell is
// isolated, retried, and journaled without touching its neighbours.
type SweepCell struct {
	Stack string
	CCA   stacks.CCA
	Net   Network
	// Traffic, when non-nil, turns the cell into a many-flow trial: the
	// population described by the spec churns through Net's bottleneck and
	// conformance is evaluated per cohort against the spec's reference
	// cohort (Stack/CCA then serve only as display labels). Nil keeps the
	// classic two-flow conformance cell.
	Traffic *traffic.Spec `json:"Traffic,omitempty"`
}

// Key returns the cell's stable identity — the checkpoint-journal key that
// makes resume idempotent. It encodes everything that changes the cell's
// result, so a journal recorded under different parameters never replays.
func (c SweepCell) Key() string {
	n := c.Net.withDefaults()
	key := fmt.Sprintf("%s/%s/%s/%v/x%d/seed%d", c.Stack, c.CCA, n, n.Duration, n.Trials, n.Seed)
	if n.Wild {
		key += "/wild"
	}
	if c.Traffic != nil {
		// Digest the canonical JSON encoding (fixed field order) so any
		// change to the traffic model — cohort mix, rates, sizes — makes a
		// distinct journal key.
		js, _ := json.Marshal(c.Traffic)
		h := uint64(14695981039346656037)
		for _, b := range js {
			h = (h ^ uint64(b)) * 1099511628211
		}
		key += fmt.Sprintf("/mf%016x", h)
	}
	return key
}

// CellReport is the JSON-stable result payload journaled per cell: the full
// §3 metric set of one conformance evaluation.
type CellReport struct {
	Conformance         float64 `json:"conf"`
	ConformanceOld      float64 `json:"conf_old"`
	ConformanceT        float64 `json:"conf_t"`
	DeltaThroughputMbps float64 `json:"d_tput_mbps"`
	DeltaDelayMs        float64 `json:"d_delay_ms"`
	K                   int     `json:"k"`
	// ManyFlow carries the per-cohort breakdown of a many-flow cell (nil
	// for classic two-flow cells); the top-level metrics then describe the
	// aggregate non-reference population.
	ManyFlow *ManyFlowReport `json:"manyflow,omitempty"`
}

// GridCells expands stackNames × ccas × nets into sweep cells, keeping only
// the (stack, CCA) pairs the registry implements — the paper's grid never
// measures a stack on an algorithm it does not ship. Unknown stack names
// report ErrUnknownStack.
func GridCells(stackNames []string, ccas []stacks.CCA, nets []Network) ([]SweepCell, error) {
	var out []SweepCell
	for _, name := range stackNames {
		s := stacks.Get(name)
		if s == nil {
			return nil, fmt.Errorf("%w %q", ErrUnknownStack, name)
		}
		for _, cca := range ccas {
			if !s.Has(cca) {
				continue
			}
			for _, n := range nets {
				out = append(out, SweepCell{Stack: name, CCA: cca, Net: n})
			}
		}
	}
	return out, nil
}

// CellTrialSpec is the serializable description of one sweep trial — the
// spec a crash-isolated trial child (internal/isolate) receives over its
// stdin. It carries everything runCell needs, so the child reproduces the
// in-process computation exactly.
type CellTrialSpec struct {
	Cell     SweepCell `json:"cell"`
	Deadline sim.Time  `json:"deadline,omitempty"`
	// Trace, when non-nil, enables structured qlog tracing for every trial
	// of the cell. The child writes to the same (shared) filesystem paths
	// the in-process executor would, so trace bytes are executor-agnostic.
	Trace *TraceOptions `json:"trace,omitempty"`
}

// runCell executes the full conformance pipeline for one cell — the single
// code path behind both the in-process trial closure and the isolated
// child (ExecuteCellSpec), which is what makes their results bit-identical.
func runCell(ctx context.Context, c SweepCell, deadline sim.Time, topts *TraceOptions) (CellReport, error) {
	if c.Traffic != nil {
		return manyFlowCell(c, deadline, topts, Bounds{Ctx: ctx})
	}
	fl, err := SpecE(c.Stack, c.CCA)
	if err != nil {
		return CellReport{}, err
	}
	ct, err := newCellTracer(topts, c.Key())
	if err != nil {
		return CellReport{}, err
	}
	r, err := conformanceImpaired(fl, c.Net, nil, Bounds{Ctx: ctx, Deadline: deadline}, ct)
	if err != nil {
		return CellReport{}, err
	}
	return CellReport{
		Conformance:         r.Conformance,
		ConformanceOld:      r.ConformanceOld,
		ConformanceT:        r.ConformanceT,
		DeltaThroughputMbps: r.DeltaThroughputMbps,
		DeltaDelayMs:        r.DeltaDelayMs,
		K:                   r.K,
	}, nil
}

// ExecuteCellSpec runs the trial described by a marshalled CellTrialSpec
// and returns the marshalled CellReport — the child half of the isolation
// protocol. The returned bytes are identical to what the in-process
// executor journals for the same cell and seed.
func ExecuteCellSpec(ctx context.Context, payload []byte) (json.RawMessage, error) {
	var spec CellTrialSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, fmt.Errorf("core: bad cell trial spec: %w", err)
	}
	rep, err := runCell(ctx, spec.Cell, spec.Deadline, spec.Trace)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// SweepTrials lowers cells to supervised runner trials. Each trial runs the
// full conformance pipeline for its cell under Bounds{Ctx, deadline}: the
// sweep's cancellation context reaches every in-flight discrete-event run,
// and a positive deadline caps each underlying trial's virtual clock. The
// trial's Spec carries the same cell serializably, so an isolating executor
// can ship it to a child process instead.
func SweepTrials(cells []SweepCell, deadline sim.Time, topts *TraceOptions) []runner.Trial {
	out := make([]runner.Trial, len(cells))
	for i, c := range cells {
		c := c
		out[i] = runner.Trial{
			Key:  c.Key(),
			Seed: c.Net.withDefaults().Seed,
			Spec: CellTrialSpec{Cell: c, Deadline: deadline, Trace: topts},
			Run: func(ctx context.Context) (any, error) {
				return runCell(ctx, c, deadline, topts)
			},
		}
	}
	return out
}

// SweepConfig tunes a supervised conformance sweep: the supervisor's own
// configuration (worker pool, retry budget, jitter seed, executor,
// observers — see runner.Config; Journal and Done are owned by Checkpoint
// and Resume here) plus what only a conformance sweep has.
type SweepConfig struct {
	runner.Config
	// TrialDeadline, when positive, caps each underlying trial's virtual
	// clock (faults.ErrDeadline on excess).
	TrialDeadline sim.Time
	// Checkpoint is the JSONL journal path ("" disables checkpointing).
	Checkpoint string
	// Resume replays the journal at Checkpoint and re-executes only
	// missing, failed, or skipped cells.
	Resume bool
	// Trace enables per-trial qlog tracing (see TraceOptions); the zero
	// value disables it.
	Trace TraceOptions
}

// RunSweep executes a conformance sweep over cells under full supervision:
// panic isolation, retry with deterministic backoff, checkpointing, and
// graceful cancellation. Records merge in cell order; an interrupted sweep
// resumed from its journal is bit-identical to an uninterrupted one.
func RunSweep(ctx context.Context, cfg SweepConfig, cells []SweepCell) (*runner.SweepResult, error) {
	var topts *TraceOptions
	if cfg.Trace.enabled() {
		topts = &cfg.Trace
	}
	trials := SweepTrials(cells, cfg.TrialDeadline, topts)
	if cfg.Checkpoint == "" {
		return runner.Run(ctx, cfg.Config, trials)
	}
	return runner.RunCheckpointed(ctx, cfg.Config, trials, cfg.Checkpoint, cfg.Resume)
}
