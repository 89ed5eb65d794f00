package faults

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/stats"
)

// collector records delivered packets.
type collector struct {
	pkts []*netem.Packet
}

func (c *collector) HandlePacket(p *netem.Packet) { c.pkts = append(c.pkts, p) }

func TestGilbertElliottValidation(t *testing.T) {
	for _, bad := range [][4]float64{
		{-0.1, 0.5, 0, 1},
		{0.5, 1.5, 0, 1},
		{0.5, 0.5, -1, 1},
		{0.5, 0.5, 0, 2},
	} {
		if _, err := NewGilbertElliott(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("NewGilbertElliott(%v) accepted invalid parameters", bad)
		}
	}
	if _, err := NewGilbertElliott(0.01, 0.3, 0, 1); err != nil {
		t.Fatalf("valid parameters rejected: %v", err)
	}
}

// TestGilbertElliottStateMachine pins the loss-then-transition ordering
// with degenerate probabilities whose outcomes are exact, independent of
// the RNG stream.
func TestGilbertElliottStateMachine(t *testing.T) {
	rng := stats.NewRNG(1)
	cases := []struct {
		name                        string
		pGB, pBG, lossGood, lossBad float64
		want                        []bool
	}{
		// Always transition: states alternate G,B,G,B..., Bad always loses.
		{"alternating", 1, 1, 0, 1, []bool{false, true, false, true, false, true}},
		// Never leave Good, Good never loses.
		{"stay-good", 0, 1, 0, 1, []bool{false, false, false, false}},
		// Jump to Bad after the first packet and stay: all but first lost.
		{"absorb-bad", 1, 0, 0, 1, []bool{false, true, true, true, true}},
		// Loss probability 1 in both states.
		{"always-lossy", 0.5, 0.5, 1, 1, []bool{true, true, true}},
	}
	for _, tc := range cases {
		ge, err := NewGilbertElliott(tc.pGB, tc.pBG, tc.lossGood, tc.lossBad)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, want := range tc.want {
			if got := ge.Drop(rng); got != want {
				t.Errorf("%s: packet %d: Drop() = %v, want %v", tc.name, i, got, want)
			}
		}
	}
}

func TestGilbertElliottDeterministicTrace(t *testing.T) {
	trace := func(seed uint64) []bool {
		rng := stats.NewRNG(seed)
		ge, _ := NewGilbertElliott(0.05, 0.3, 0.01, 0.6)
		out := make([]bool, 200)
		for i := range out {
			out[i] = ge.Drop(rng)
		}
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 200-packet trace")
	}
}

// TestGilbertElliottMeanLoss checks the channel against the closed forms of
// its two-state Markov chain, written out here rather than read from
// MeanLoss. The grid is in tc-netem's `loss gemodel p r 1-h 1-k` terms (as
// pumba's `netem loss-gemodel --pg --pb --one-h --one-k` spells them):
// p = PGoodBad, r = PBadGood, 1-h = LossBad, 1-k = LossGood.
//
//   - Stationary loss rate: π_B·(1-h) + (1-π_B)·(1-k), with π_B = p/(p+r).
//   - Mean Bad-state sojourn: 1/r (sojourns are Geometric(r) on 1, 2, …).
//
// Each tolerance is k = 4 standard errors of the estimate at this test's
// sample size (two-sided ≈ 6e-5 under normality), computed per grid point:
//
//   - Loss rate over n packets. The loss indicator is the state's loss
//     probability plus independent Bernoulli noise. The noise contributes
//     E[l(1-l)]/n. The state part has variance ((1-h)-(1-k))²·π_B(1-π_B)
//     and lag-j autocorrelation λ^j with λ = 1-p-r, so its variance of the
//     mean is inflated by Σ_j λ^|j| = (1+λ)/(1-λ).
//   - Mean sojourn over N completed Bad sojourns: i.i.d. Geometric(r),
//     variance (1-r)/r², so SE = sqrt((1-r)/r²/N).
//
// The chain starts in Good, so burnIn packets (≥ 50 mixing times 1/(p+r))
// are discarded before counting; the residual start bias is then below
// |λ|^burnIn ≈ e^-50, negligible against the tolerance.
func TestGilbertElliottMeanLoss(t *testing.T) {
	const (
		n = 1_000_000 // counted packets per grid point
		k = 4.0       // standard errors per tolerance
	)
	grid := []struct{ p, r, oneMinusH, oneMinusK float64 }{
		{0.01, 0.2, 1, 0},         // simple Gilbert: Bad always loses, Good never
		{0.01, 0.2, 0.5, 0},       // Gilbert with h > 0
		{0.05, 0.3, 0.6, 0.01},    // full Gilbert–Elliott
		{0.002, 0.05, 0.9, 0.001}, // long, rare bursts (λ ≈ 0.95)
		{0.1, 0.1, 0.3, 0.02},     // balanced states
		{0.7, 0.6, 0.8, 0.1},      // anti-correlated states (λ < 0)
	}
	for i, g := range grid {
		name := fmt.Sprintf("p=%g,r=%g,1-h=%g,1-k=%g", g.p, g.r, g.oneMinusH, g.oneMinusK)
		t.Run(name, func(t *testing.T) {
			ge, err := NewGilbertElliott(g.p, g.r, g.oneMinusK, g.oneMinusH)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(uint64(7 + i))
			burnIn := int(math.Ceil(50 / (g.p + g.r)))
			for j := 0; j < burnIn; j++ {
				ge.Drop(rng)
			}

			// Sojourns count only when they both start and end inside
			// the counted window.
			lost, sojourns, sojournPkts, run := 0, 0, 0, -1
			for j := 0; j < n; j++ {
				wasBad := ge.bad
				if ge.Drop(rng) {
					lost++
				}
				switch {
				case !wasBad && ge.bad:
					run = 0
				case wasBad && !ge.bad && run >= 0:
					sojourns++
					sojournPkts += run + 1
					run = -1
				case wasBad && run >= 0:
					run++
				}
			}

			piB := g.p / (g.p + g.r)
			wantLoss := piB*g.oneMinusH + (1-piB)*g.oneMinusK
			lambda := 1 - g.p - g.r
			noise := piB*g.oneMinusH*(1-g.oneMinusH) + (1-piB)*g.oneMinusK*(1-g.oneMinusK)
			d := g.oneMinusH - g.oneMinusK
			state := d * d * piB * (1 - piB) * (1 + lambda) / (1 - lambda)
			lossSE := math.Sqrt((noise + state) / n)
			if got := float64(lost) / n; math.Abs(got-wantLoss) > k*lossSE {
				t.Errorf("loss rate %.5f, closed form %.5f (tolerance %.5f = %g SE)", got, wantLoss, k*lossSE, k)
			}

			if sojourns == 0 {
				t.Fatal("no completed Bad sojourn")
			}
			wantSojourn := 1 / g.r
			sojournSE := math.Sqrt((1 - g.r) / (g.r * g.r) / float64(sojourns))
			if got := float64(sojournPkts) / float64(sojourns); math.Abs(got-wantSojourn) > k*sojournSE {
				t.Errorf("mean Bad sojourn %.3f packets over %d sojourns, closed form %.3f (tolerance %.3f = %g SE)",
					got, sojourns, wantSojourn, k*sojournSE, k)
			}
		})
	}
}

func TestIIDLossRate(t *testing.T) {
	rng := stats.NewRNG(3)
	m := IIDLoss{P: 0.03}
	const n = 100000
	lost := 0
	for i := 0; i < n; i++ {
		if m.Drop(rng) {
			lost++
		}
	}
	if got := float64(lost) / n; math.Abs(got-0.03) > 0.005 {
		t.Errorf("empirical loss %.4f, want ~0.03", got)
	}
}

func TestInjectorValidation(t *testing.T) {
	dst := &collector{}
	if _, err := NewInjector(Config{}, nil); err == nil {
		t.Error("nil destination accepted")
	}
	if _, err := NewInjector(Config{DupProb: 1.5, RNG: stats.NewRNG(1)}, dst); err == nil {
		t.Error("DupProb > 1 accepted")
	}
	if _, err := NewInjector(Config{CorruptProb: -0.1, RNG: stats.NewRNG(1)}, dst); err == nil {
		t.Error("negative CorruptProb accepted")
	}
	if _, err := NewInjector(Config{Loss: IIDLoss{P: 0.1}}, dst); err == nil {
		t.Error("probabilistic impairment without RNG accepted")
	}
	if _, err := NewInjector(Config{}, dst); err != nil {
		t.Errorf("impairment-free injector rejected: %v", err)
	}
}

func TestInjectorCorruptionFlagsCopy(t *testing.T) {
	dst := &collector{}
	in, err := NewInjector(Config{RNG: stats.NewRNG(1), CorruptProb: 1}, dst)
	if err != nil {
		t.Fatal(err)
	}
	orig := &netem.Packet{Flow: 1, Seq: 5, Size: 1200}
	in.HandlePacket(orig)
	if orig.Corrupted {
		t.Error("injector mutated the sender's packet")
	}
	if len(dst.pkts) != 1 || !dst.pkts[0].Corrupted {
		t.Fatalf("want one corrupted delivery, got %+v", dst.pkts)
	}
	if dst.pkts[0].Size != orig.Size {
		t.Error("corruption changed the wire size")
	}
	if in.Stats.Corrupted != 1 {
		t.Errorf("Stats.Corrupted = %d, want 1", in.Stats.Corrupted)
	}
}

func TestInjectorDuplication(t *testing.T) {
	dst := &collector{}
	in, err := NewInjector(Config{RNG: stats.NewRNG(1), DupProb: 1}, dst)
	if err != nil {
		t.Fatal(err)
	}
	in.HandlePacket(&netem.Packet{Flow: 1, Seq: 9, Size: 100})
	if len(dst.pkts) != 2 {
		t.Fatalf("want 2 deliveries, got %d", len(dst.pkts))
	}
	if dst.pkts[0].Seq != 9 || dst.pkts[1].Seq != 9 {
		t.Errorf("duplicate carries wrong seq: %+v", dst.pkts)
	}
	if in.Stats.Duplicated != 1 || in.Stats.Passed != 1 {
		t.Errorf("stats = %+v", in.Stats)
	}
}

func TestInjectorBlackout(t *testing.T) {
	dst := &collector{}
	in, err := NewInjector(Config{}, dst)
	if err != nil {
		t.Fatal(err)
	}
	in.HandlePacket(&netem.Packet{Seq: 1})
	in.SetDown(true)
	in.HandlePacket(&netem.Packet{Seq: 2})
	in.HandlePacket(&netem.Packet{Seq: 3})
	in.SetDown(false)
	in.HandlePacket(&netem.Packet{Seq: 4})
	if len(dst.pkts) != 2 || dst.pkts[0].Seq != 1 || dst.pkts[1].Seq != 4 {
		t.Fatalf("blackout delivered the wrong set: %+v", dst.pkts)
	}
	if in.Stats.Blackholed != 2 {
		t.Errorf("Stats.Blackholed = %d, want 2", in.Stats.Blackholed)
	}
}

// TestInjectorTraceDeterminism: the same seed must damage the same packets
// — the impairment trace is a pure function of the seed.
func TestInjectorTraceDeterminism(t *testing.T) {
	type delivery struct {
		seq       int64
		corrupted bool
	}
	run := func(seed uint64) ([]delivery, InjectorStats) {
		dst := &collector{}
		ge, _ := NewGilbertElliott(0.05, 0.3, 0.01, 0.6)
		in, err := NewInjector(Config{
			RNG:         stats.NewRNG(seed),
			Loss:        ge,
			DupProb:     0.02,
			CorruptProb: 0.02,
		}, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			in.HandlePacket(&netem.Packet{Flow: 1, Seq: int64(i), Size: 1200})
		}
		out := make([]delivery, len(dst.pkts))
		for i, p := range dst.pkts {
			out[i] = delivery{p.Seq, p.Corrupted}
		}
		return out, in.Stats
	}
	a, sa := run(11)
	b, sb := run(11)
	if sa != sb {
		t.Fatalf("same seed, different decisions: %+v vs %+v", sa, sb)
	}
	if sa.Lost == 0 || sa.Corrupted == 0 || sa.Duplicated == 0 {
		t.Fatalf("trace exercises too little: %+v", sa)
	}
	if len(a) != len(b) {
		t.Fatalf("delivery lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
