package core

// Golden determinism tests: the full metric output of pinned-seed trials is
// committed under testdata/ and compared byte for byte. Hot-path work on the
// event engine or the transport bookkeeping that changes *behaviour* — not
// just speed — fails these tests loudly, which is exactly the guard the
// optimisation PRs rely on ("bit-identical trial results before/after").
//
// Regenerate after an intentional behaviour change with:
//
//	go test ./internal/core -run TestGolden -update-golden

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/stacks"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trial outputs under testdata/")

// goldenNetwork is deliberately small (2 s flows) so the committed files stay
// reviewable, yet long enough to leave slow start and exercise loss recovery
// at a 0.5 BDP buffer.
func goldenNetwork() Network {
	return Network{
		BandwidthMbps: 20,
		RTT:           10 * sim.Millisecond,
		BufferBDP:     0.5,
		Duration:      2 * sim.Second,
		Trials:        2,
		Seed:          42,
	}
}

// goldenTrial is the serialized form of one trial's complete metric output:
// the §3.1 sample sets for both flows plus every aggregate RunTrialE reports.
// Floats are marshalled by encoding/json's shortest round-trip formatting,
// so any drift in any bit of any sample changes the file.
type goldenTrial struct {
	MeanMbps [2]float64   `json:"mean_mbps"`
	Drops    uint64       `json:"drops"`
	Losses   [2]int64     `json:"losses"`
	Spurious [2]int64     `json:"spurious"`
	PointsA  []geom.Point `json:"points_a"`
	PointsB  []geom.Point `json:"points_b"`
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

func compareGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	got = append(got, '\n')
	path := goldenPath(t, name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s: trial output is not byte-identical to the committed golden.\n"+
			"If this behaviour change is intentional, regenerate with -update-golden "+
			"and justify the diff in the PR; if you were optimising a hot path, it is a bug.",
			name)
	}
}

// TestGoldenTrialOutput pins one two-flow trial per CCA: the quicgo stack
// against the kernel reference, covering the Reno, CUBIC, and BBR controller
// hot paths end to end (sim engine, netem links, transport bookkeeping).
func TestGoldenTrialOutput(t *testing.T) {
	n := goldenNetwork()
	cases := []struct {
		stack string
		cca   stacks.CCA
	}{
		{"quicgo", stacks.Reno},
		{"quicgo", stacks.CUBIC},
		{"mvfst", stacks.BBR},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.cca), func(t *testing.T) {
			res, err := RunTrialE(Spec(tc.stack, tc.cca), Spec("kernel", tc.cca), n, 0)
			if err != nil {
				t.Fatalf("golden trial failed: %v", err)
			}
			g := goldenTrial{
				MeanMbps: res.MeanMbps,
				Drops:    res.Drops,
				Losses:   res.Losses,
				Spurious: res.Spurious,
				PointsA:  res.Points(0, n),
				PointsB:  res.Points(1, n),
			}
			compareGolden(t, "golden_trial_"+string(tc.cca)+".json", g)
		})
	}
}

// TestGoldenConformance pins the full §3 conformance pipeline — test and
// reference trials, clustering, hull construction, translation search — for
// one pinned-seed configuration.
func TestGoldenConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance golden runs 2x2 trials; skipped in -short")
	}
	n := goldenNetwork()
	rep, err := Conformance(Spec("quicgo", stacks.CUBIC), n)
	if err != nil {
		t.Fatalf("golden conformance failed: %v", err)
	}
	compareGolden(t, "golden_conformance_cubic.json", rep)
}

// TestGoldenImpairedTrial pins one fault-injected trial (i.i.d. loss on the
// data path), covering the injector's RNG draw sequence as well.
func TestGoldenImpairedTrial(t *testing.T) {
	n := goldenNetwork()
	res, err := runTrial(Spec("quicgo", stacks.CUBIC), Spec("kernel", stacks.CUBIC), n, 0,
		&Impairment{LossProb: 0.005}, Bounds{}, nil)
	if err != nil {
		t.Fatalf("golden impaired trial failed: %v", err)
	}
	g := goldenTrial{
		MeanMbps: res.MeanMbps,
		Drops:    res.Drops,
		Losses:   res.Losses,
		Spurious: res.Spurious,
		PointsA:  res.Points(0, n),
		PointsB:  res.Points(1, n),
	}
	compareGolden(t, "golden_trial_impaired_cubic.json", g)
}
