package core

import (
	"errors"
	"testing"

	"repro/internal/faults"
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

func allLossy() Impairment {
	return Impairment{Loss: func() (faults.LossModel, error) { return faults.IIDLoss{P: 1}, nil }}
}

// TestAllLossyTrialReturnsTypedError is the headline regression: a trial
// where every data packet is lost must surface ErrZeroThroughput through
// the error chain — not panic, not return garbage.
func TestAllLossyTrialReturnsTypedError(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	res, err := RunTrialImpaired(a, b, n, 0, allLossy())
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
	_, err := RunTrialImpaired(a, b, n, 0, imp)
	if !errors.Is(err, ErrZeroThroughput) {
		t.Fatalf("err = %v, want ErrZeroThroughput", err)
	}
}

// TestConformanceImpairedAllLossyError: the typed error must propagate
// through the whole conformance pipeline, tagged with the failing trial.
func TestConformanceImpairedAllLossyError(t *testing.T) {
	n := chaosNet(7)
	fl := Spec("quicgo", stacks.CUBIC)
	_, err := ConformanceImpaired(fl, n, allLossy())
	if err == nil {
		t.Fatal("ConformanceImpaired on all-lossy network reported no error")
	}
	if !errors.Is(err, ErrZeroThroughput) {
		t.Fatalf("err = %v, want ErrZeroThroughput in the chain", err)
	}
}

// TestChaosConformanceRecordsDegenerateLevels: a sweep containing a
// degenerate level records the typed error on that point and keeps going.
func TestChaosConformanceRecordsDegenerateLevels(t *testing.T) {
	n := chaosNet(7)
	fl := Spec("quicgo", stacks.CUBIC)
	levels := []ChaosLevel{
		{Name: "none"},
		{Name: "all-lossy", Impair: allLossy()},
	}
	pts := ChaosConformance(fl, n, levels)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Err != nil {
		t.Errorf("pristine level failed: %v", pts[0].Err)
	}
	if c := pts[0].Report.Conformance; c < 0 || c > 1 {
		t.Errorf("pristine conformance %v outside [0,1]", c)
	}
	if !errors.Is(pts[1].Err, ErrZeroThroughput) {
		t.Errorf("all-lossy level err = %v, want ErrZeroThroughput", pts[1].Err)
	}
}

// TestImpairedTrialDeterministic: the same seed must reproduce the same
// impaired trial bit for bit — the impairment trace is part of the seeded
// state.
func TestImpairedTrialDeterministic(t *testing.T) {
	n := chaosNet(7)
	a := Spec("quicgo", stacks.CUBIC)
	b := Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	imp := Impairment{Loss: func() (faults.LossModel, error) { return faults.IIDLoss{P: 0.01}, nil }}
	r1, err1 := RunTrialImpaired(a, b, n, 0, imp)
	r2, err2 := RunTrialImpaired(a, b, n, 0, imp)
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
	impaired, err := RunTrialImpaired(a, b, n, 0, Impairment{})
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
	imp := Impairment{Loss: func() (faults.LossModel, error) { return faults.IIDLoss{P: 0.001}, nil }}
	seeds := []uint64{1, 2, 3, 4, 5}
	confs := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		r, err := ConformanceImpaired(fl, chaosNet(seed), imp)
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
	again, err := ConformanceImpaired(fl, chaosNet(seeds[0]), imp)
	if err != nil {
		t.Fatal(err)
	}
	if again.Conformance != confs[0] {
		t.Errorf("seed %d not reproducible: %v vs %v", seeds[0], confs[0], again.Conformance)
	}
}
