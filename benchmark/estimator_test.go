package main

import (
	"context"
	"math"
	"testing"
	"time"

	quicbench "repro"
)

func TestQuietPassRebuildsAnUndisturbedPass(t *testing.T) {
	base := []float64{0.100, 0.020, 0.300, 0.005}
	want := 0.425
	// Six passes; each op is clean in exactly one pass and slowed by a
	// different amount in the others, and pass 5 is slow throughout. No
	// single pass is undisturbed, yet the estimator finds the clean cost.
	var passes [][]float64
	for r := 0; r < 6; r++ {
		p := make([]float64, len(base))
		for i, b := range base {
			slow := 1 + 0.2*float64((r+i)%5)
			if r == 5 {
				slow = 2.5
			}
			if (r+i)%5 == 0 && r != 5 {
				slow = 1
			}
			p[i] = b * slow
		}
		passes = append(passes, p)
	}
	if got := quietPass(passes); math.Abs(got-want) > 1e-12 {
		t.Errorf("quietPass = %v, want %v", got, want)
	}
	for r, p := range passes {
		s := 0.0
		for _, v := range p {
			s += v
		}
		if s <= want {
			t.Errorf("pass %d as a whole (%v) should be worse than the per-op minimum (%v)", r, s, want)
		}
	}
	if got := quietPass(nil); got != 0 {
		t.Errorf("quietPass(nil) = %v", got)
	}
}

// CPU and allocation are taken per pass: the cheapest pass's CPU and the
// median pass's allocation, whatever the per-op minimum makes of the wall
// times. A GC cycle that lands in only some passes' copy of an op would
// vanish from a per-op minimum; it cannot vanish from a whole pass.
func TestSummarizeTakesCPUAndAllocationPerPass(t *testing.T) {
	ms := time.Millisecond
	pass := func(a, b time.Duration, cpu float64, alloc uint64) passResult {
		return passResult{
			Ops:   []opSample{{Name: ":a", Dur: a, Cell: okCell("a")}, {Name: ":b", Dur: b, Cell: okCell("b")}, {Name: ":render", Dur: ms}},
			Wall:  a + b + ms,
			CPU:   cpu,
			Alloc: alloc,
		}
	}
	st := summarize([]passResult{
		pass(100*ms, 250*ms, 0.36, 3_000_000), // a quiet, b slow
		pass(140*ms, 200*ms, 0.33, 3_100_000), // a slow, b quiet: the cheapest pass
		pass(300*ms, 600*ms, 0.90, 2_900_000), // slow throughout
	})
	if st.Cells != 2 {
		t.Errorf("cells = %d, want 2", st.Cells)
	}
	if want := 0.301; math.Abs(st.QuietS-want) > 1e-9 {
		t.Errorf("quiet_pass_s = %v, want %v (per-op minimum)", st.QuietS, want)
	}
	if st.MinCPU != 0.33 {
		t.Errorf("CPU = %v, want 0.33: the cheapest whole pass, not a sum of per-op minima", st.MinCPU)
	}
	if st.MedAlloc != 3_000_000 {
		t.Errorf("allocation = %v, want the median pass's 3e6", st.MedAlloc)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the benchmark's driver computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 9.5},
		{[]float64{2, 4}, 1.5, 4.5}, // Python extrapolates past the data for n = 2
		{[]float64{5, 5, 5, 5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func okCell(key string) *quicbench.SweepCellResult {
	return &quicbench.SweepCellResult{
		Cell: key, Outcome: "ok", Attempts: 1,
		Report: quicbench.Report{Conformance: 0.5, ConformanceOld: 0.4, ConformanceT: 0.6, K: 2},
	}
}

func passOf(digest string, cells ...*quicbench.SweepCellResult) *passResult {
	pr := &passResult{Digest: digest, Journals: [][]byte{[]byte("j")}}
	for _, c := range cells {
		pr.Ops = append(pr.Ops, opSample{Name: ":" + c.Cell, Cell: c})
	}
	pr.Ops = append(pr.Ops, opSample{Name: ":render"})
	return pr
}

func TestCheckerCountsEachKindOfFailure(t *testing.T) {
	ref := passOf("d0", okCell("a"), okCell("b"))

	clean := &checker{}
	clean.check(0, ref, false)
	clean.check(1, passOf("d0", okCell("a"), okCell("b")), false)
	if clean.attempted != 6 || clean.failed != 0 {
		t.Errorf("clean passes: attempted %d failed %d, want 6 and 0", clean.attempted, clean.failed)
	}

	drift := &checker{}
	drift.check(0, ref, false)
	drift.check(1, passOf("d1", okCell("a"), okCell("b")), false)
	if drift.failed != 2 {
		t.Errorf("a digest that differs from pass 0's fails each of the pass's cells: failed %d, want 2", drift.failed)
	}

	retried := okCell("a")
	retried.Outcome, retried.Attempts = "retried", 2
	failedCell := okCell("b")
	failedCell.Outcome, failedCell.Err = "failed", "boom"
	bad := &checker{}
	bad.check(0, passOf("d0", retried, failedCell), false)
	if bad.failed != 2 {
		t.Errorf("non-ok outcomes: failed %d, want 2", bad.failed)
	}

	for name, mutate := range map[string]func(*quicbench.Report){
		"conformance above 1": func(r *quicbench.Report) { r.Conformance = 1.2 },
		"negative conf-t":     func(r *quicbench.Report) { r.ConformanceT = -0.1 },
		"NaN delta":           func(r *quicbench.Report) { r.DeltaDelayMs = math.NaN() },
		"infinite delta":      func(r *quicbench.Report) { r.DeltaThroughputMbps = math.Inf(1) },
		"K below 1":           func(r *quicbench.Report) { r.K = 0 },
	} {
		c := okCell("a")
		mutate(&c.Report)
		ck := &checker{}
		ck.check(0, passOf("d0", c), false)
		if ck.failed != 1 {
			t.Errorf("%s: failed %d, want 1", name, ck.failed)
		}
	}

	split := passOf("d0", okCell("a"))
	split.Journals = [][]byte{[]byte("same"), []byte("same"), []byte("different")}
	seam := &checker{}
	seam.check(0, split, true)
	if seam.failed != 2 {
		t.Errorf("journals that differ across executors fail the cell and its render op: failed %d, want 2", seam.failed)
	}
}

// A small real sweep: the digest repeats pass to pass, changes with the
// seed, and the second seed is as self-consistent as the first.
func TestDigestFollowsSeedAndRepeatsAcrossPasses(t *testing.T) {
	w := &workload{Name: "tiny", legs: func(seed uint64) []leg {
		return []leg{{opts: quicbench.SweepOptions{
			Stacks:   []string{"xquic"},
			CCAs:     []quicbench.CCA{quicbench.Reno},
			Networks: nets(10, 10*time.Millisecond, 1, 3*time.Second, seed, 1),
		}}}
	}}
	digests := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		dir := t.TempDir()
		ck := &checker{}
		for pass := 0; pass < 2; pass++ {
			pr := runPass(context.Background(), w, seed, dir, pass)
			if pr.Err != nil {
				t.Fatal(pr.Err)
			}
			ck.check(pass, &pr, false)
			digests[seed] = pr.Digest
		}
		if ck.failed != 0 || ck.attempted != 4 {
			t.Errorf("seed %d: attempted %d failed %d (%v), want 4 and 0", seed, ck.attempted, ck.failed, ck.faults)
		}
	}
	if digests[1] == digests[2] {
		t.Error("result_digest did not change with the seed")
	}
}
