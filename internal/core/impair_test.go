package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stacks"
)

// chaosNet is a scaled-down network for fault-injection tests: short runs
// keep the suite fast while still giving the pipeline enough samples.
func chaosNet(seed uint64) Network {
	return Network{
		BandwidthMbps: 20,
		RTT:           10 * sim.Millisecond,
		BufferBDP:     1,
		Duration:      3 * sim.Second,
		Trials:        2,
		Seed:          seed,
	}
}

func allLossy() Impairment { return Impairment{LossProb: 1} }

// TestAllLossyTrialReturnsTypedError is the headline regression: a trial
// where every data packet is lost must surface ErrZeroThroughput through
// the error chain — not panic, not return garbage.
func TestAllLossyTrialReturnsTypedError(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	imp := allLossy()
	res, err := runTrial(a, b, n, 0, &imp, Bounds{}, nil)
	if err == nil {
		t.Fatal("all-lossy trial reported no error")
	}
	if !errors.Is(err, ErrZeroThroughput) {
		t.Fatalf("err = %v, want ErrZeroThroughput in the chain", err)
	}
	if res == nil {
		t.Fatal("partial result should still be returned for diagnostics")
	}
}

// TestBlackoutCoveringRunReturnsTypedError: a blackout spanning the whole
// measurement window is equivalent to total loss.
func TestBlackoutCoveringRunReturnsTypedError(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	imp := Impairment{Blackouts: []faults.Window{{From: 0, To: n.Duration + sim.Second}}}
	_, err := runTrial(a, b, n, 0, &imp, Bounds{}, nil)
	if !errors.Is(err, ErrZeroThroughput) {
		t.Fatalf("err = %v, want ErrZeroThroughput", err)
	}
}

// TestConformanceImpairedAllLossyError: the typed error must propagate
// through the whole conformance pipeline, tagged with the failing trial.
func TestConformanceImpairedAllLossyError(t *testing.T) {
	n := chaosNet(7)
	fl := Spec("quicgo", stacks.CUBIC)
	imp := allLossy()
	_, err := conformanceImpaired(fl, n, &imp, Bounds{}, nil)
	if err == nil {
		t.Fatal("conformanceImpaired on all-lossy network reported no error")
	}
	if !errors.Is(err, ErrZeroThroughput) {
		t.Fatalf("err = %v, want ErrZeroThroughput in the chain", err)
	}
}

// TestChaosConformanceRecordsDegenerateLevels: a sweep over impairment
// levels fails the degenerate cell with its typed error and keeps the
// pristine cell healthy.
func TestChaosConformanceRecordsDegenerateLevels(t *testing.T) {
	lossy := allLossy()
	cells := []SweepCell{
		{Stack: "quicgo", CCA: stacks.CUBIC, Net: chaosNet(7)},
		{Stack: "quicgo", CCA: stacks.CUBIC, Net: chaosNet(7), Impair: &lossy},
	}
	res, err := RunSweep(context.Background(), SweepConfig{Config: runner.Config{MaxAttempts: 1}}, cells)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(res.Records))
	}
	pristine, lossyRec := res.Records[0], res.Records[1]
	if pristine.Outcome != runner.OutcomeOK {
		t.Fatalf("pristine cell: outcome %s (%s)", pristine.Outcome, pristine.Err)
	}
	var rep CellReport
	if err := json.Unmarshal(pristine.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if c := rep.Conformance; c < 0 || c > 1 {
		t.Errorf("pristine conformance %v outside [0,1]", c)
	}
	if lossyRec.Outcome != runner.OutcomeFailed || !strings.Contains(lossyRec.Err, ErrZeroThroughput.Error()) {
		t.Errorf("all-lossy cell: outcome %s err %q, want failed with ErrZeroThroughput", lossyRec.Outcome, lossyRec.Err)
	}
}

// TestImpairedCellKey: every distinct impairment is a distinct journal key
// with a readable suffix, a nil or zero impairment leaves the pristine key
// (and spec JSON) untouched, and CellTrialSpec carries the impairment
// through a JSON round trip.
func TestImpairedCellKey(t *testing.T) {
	base := SweepCell{Stack: "quicgo", CCA: stacks.CUBIC, Net: chaosNet(7)}
	const pristine = "quicgo/cubic/20Mbps/10ms/1.0BDP/3.000000s/x2/seed7"
	with := func(imp Impairment) SweepCell { c := base; c.Impair = &imp; return c }
	if k := base.Key(); k != pristine {
		t.Fatalf("pristine key %q, want %q", k, pristine)
	}
	if k := with(Impairment{}).Key(); k != pristine {
		t.Errorf("zero impairment key %q, want the pristine %q", k, pristine)
	}
	if js, _ := json.Marshal(base); strings.Contains(string(js), "Impair") {
		t.Errorf("pristine cell JSON %s names an impairment", js)
	}

	blackout := Impairment{Blackouts: []faults.Window{{From: 1600 * sim.Millisecond, To: 2 * sim.Second}}}
	custom := DefaultBurst
	custom.LossBad = 1
	seen := map[string]bool{}
	for _, c := range []struct {
		imp    Impairment
		suffix string
	}{
		{Impairment{LossProb: 0.001}, "/loss0.001"},
		{Impairment{LossProb: 0.01}, "/loss0.01"},
		{Impairment{Burst: &DefaultBurst}, "/burst"},
		{Impairment{Burst: &custom}, "/burst0.0008,0.04,0,1"},
		{Impairment{DupProb: 0.01}, "/dup0.01"},
		{Impairment{CorruptProb: 0.01}, "/corrupt0.01"},
		{blackout, "/blackout1.6s+400ms"},
		{Impairment{Blackouts: []faults.Window{{From: 1600 * sim.Millisecond, To: 2100 * sim.Millisecond}}}, "/blackout1.6s+500ms"},
	} {
		k := with(c.imp).Key()
		if k != pristine+c.suffix {
			t.Errorf("key %q, want %q", k, pristine+c.suffix)
		}
		if seen[k] {
			t.Errorf("duplicate key %q", k)
		}
		seen[k] = true
	}

	full := Impairment{LossProb: 0.01, Burst: &DefaultBurst, DupProb: 0.02, CorruptProb: 0.03, Blackouts: blackout.Blackouts}
	spec := CellTrialSpec{Cell: with(full)}
	js, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back CellTrialSpec
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) || back.Cell.Key() != spec.Cell.Key() {
		t.Errorf("CellTrialSpec round trip lost the impairment:\nsent %+v\ngot  %+v", spec.Cell.Impair, back.Cell.Impair)
	}
}

// TestImpairedCellMatchesConformanceImpaired: an impaired sweep cell
// reports exactly what conformanceImpaired measures on the same impairment.
func TestImpairedCellMatchesConformanceImpaired(t *testing.T) {
	n := chaosNet(7)
	imp := Impairment{Burst: &DefaultBurst}
	got, err := runCell(context.Background(), SweepCell{Stack: "quicgo", CCA: stacks.CUBIC, Net: n, Impair: &imp}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := conformanceImpaired(Spec("quicgo", stacks.CUBIC), n, &imp, Bounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := CellReport{
		Conformance:         r.Conformance,
		ConformanceOld:      r.ConformanceOld,
		ConformanceT:        r.ConformanceT,
		DeltaThroughputMbps: r.DeltaThroughputMbps,
		DeltaDelayMs:        r.DeltaDelayMs,
		K:                   r.K,
	}
	if got != want {
		t.Errorf("impaired cell %+v, conformanceImpaired %+v", got, want)
	}
}

// TestImpairmentBadParameter: an out-of-range loss parameter is the
// trial's typed "core: loss model:" error, not a panic or a silent number.
func TestImpairmentBadParameter(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	for _, imp := range []Impairment{
		{LossProb: 1.5},
		{Burst: &GilbertElliott{PGoodBad: 2}},
	} {
		if _, err := runTrial(a, b, n, 0, &imp, Bounds{}, nil); err == nil || !strings.Contains(err.Error(), "core: loss model:") {
			t.Errorf("%+v: err = %v, want a core: loss model: error", imp, err)
		}
	}
}

// TestImpairedTrialDeterministic: the same seed must reproduce the same
// impaired trial bit for bit — the impairment trace is part of the seeded
// state.
func TestImpairedTrialDeterministic(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	imp := Impairment{LossProb: 0.01}
	r1, err1 := runTrial(a, b, n, 0, &imp, Bounds{}, nil)
	r2, err2 := runTrial(a, b, n, 0, &imp, Bounds{}, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	for i := range r1.MeanMbps {
		if r1.MeanMbps[i] != r2.MeanMbps[i] {
			t.Errorf("flow %d throughput diverged across identical runs: %v vs %v",
				i, r1.MeanMbps[i], r2.MeanMbps[i])
		}
	}
	if r1.Drops != r2.Drops {
		t.Errorf("drop counts diverged: %d vs %d", r1.Drops, r2.Drops)
	}
}

// TestZeroImpairmentMatchesCleanPath: an empty Impairment must take the
// clean path and reproduce RunTrialE exactly (no extra RNG draws, no
// injector in the topology).
func TestZeroImpairmentMatchesCleanPath(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	clean, err := RunTrialE(a, b, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	impaired, err := runTrial(a, b, n, 0, &Impairment{}, Bounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.MeanMbps {
		if clean.MeanMbps[i] != impaired.MeanMbps[i] {
			t.Errorf("flow %d: zero impairment changed throughput: %v vs %v",
				i, clean.MeanMbps[i], impaired.MeanMbps[i])
		}
	}
	if clean.Drops != impaired.Drops {
		t.Errorf("zero impairment changed drops: %d vs %d", clean.Drops, impaired.Drops)
	}
}

// TestChaosSeedSweepSmoke runs one small conformance configuration across
// five seeds under moderate impairment: no trial may error, every
// conformance must stay in a sane band, and the first seed must reproduce
// exactly. This is the nondeterminism/regression canary for the fault layer.
func TestChaosSeedSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow; skipped with -short")
	}
	fl := Spec("quicgo", stacks.CUBIC)
	imp := Impairment{LossProb: 0.001}
	seeds := []uint64{1, 2, 3, 4, 5}
	confs := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		r, err := conformanceImpaired(fl, chaosNet(seed), &imp, Bounds{}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Conformance < 0 || r.Conformance > 1 {
			t.Fatalf("seed %d: conformance %v outside [0,1]", seed, r.Conformance)
		}
		confs = append(confs, r.Conformance)
	}
	var sum float64
	for _, c := range confs {
		sum += c
	}
	if mean := sum / float64(len(confs)); mean < 0.05 {
		t.Errorf("mean conformance %.3f across seeds %v; moderate impairment should not collapse it", mean, confs)
	}
	// Re-running the first seed must reproduce its conformance exactly.
	again, err := conformanceImpaired(fl, chaosNet(seeds[0]), &imp, Bounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Conformance != confs[0] {
		t.Errorf("seed %d not reproducible: %v vs %v", seeds[0], confs[0], again.Conformance)
	}
}
