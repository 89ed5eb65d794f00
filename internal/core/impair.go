package core

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Impairment is a declarative fault specification for the data path of a
// trial: a loss process, duplication/corruption taps, and blackout
// windows. It holds plain values only, so it journals as part of a
// SweepCell and crosses the isolate and dist process boundaries unchanged.
// The zero value is the pristine testbed.
type Impairment struct {
	// LossProb is the i.i.d. per-packet loss probability.
	LossProb float64 `json:",omitempty"`
	// Burst, when non-nil, replaces the i.i.d. process with a
	// Gilbert–Elliott burst channel.
	Burst *GilbertElliott `json:",omitempty"`
	// DupProb / CorruptProb are per-packet i.i.d. probabilities on the
	// data path.
	DupProb     float64 `json:",omitempty"`
	CorruptProb float64 `json:",omitempty"`
	// Blackouts are total-outage windows of the data path.
	Blackouts []faults.Window `json:",omitempty"`
}

// GilbertElliott holds the parameters of a burst-loss channel (see
// faults.NewGilbertElliott). The model itself is stateful, so every trial
// builds a fresh one from these values.
type GilbertElliott struct {
	PGoodBad, PBadGood, LossGood, LossBad float64
}

// DefaultBurst is a ~1% mean-loss channel (piBad ~2%, half the packets in
// Bad lost) in bursts of ~25 packets.
var DefaultBurst = GilbertElliott{PGoodBad: 0.0008, PBadGood: 0.04, LossBad: 0.5}

// enabled reports whether the spec requests any impairment at all. It is
// nil-safe so the clean path can carry a nil *Impairment.
func (imp *Impairment) enabled() bool {
	return imp != nil && (imp.LossProb != 0 || imp.Burst != nil || imp.DupProb > 0 ||
		imp.CorruptProb > 0 || len(imp.Blackouts) > 0)
}

// key is the impairment's SweepCell.Key suffix: one readable segment per
// non-zero field, "" for the pristine testbed.
func (imp *Impairment) key() string {
	if imp == nil {
		return ""
	}
	var s string
	if imp.LossProb != 0 {
		s += fmt.Sprintf("/loss%g", imp.LossProb)
	}
	if b := imp.Burst; b != nil {
		s += "/burst"
		if *b != DefaultBurst {
			s += fmt.Sprintf("%g,%g,%g,%g", b.PGoodBad, b.PBadGood, b.LossGood, b.LossBad)
		}
	}
	if imp.DupProb > 0 {
		s += fmt.Sprintf("/dup%g", imp.DupProb)
	}
	if imp.CorruptProb > 0 {
		s += fmt.Sprintf("/corrupt%g", imp.CorruptProb)
	}
	for _, w := range imp.Blackouts {
		s += fmt.Sprintf("/blackout%v+%v", time.Duration(w.From), time.Duration(w.To-w.From))
	}
	return s
}

// lossModel builds a fresh loss process for one trial (nil when lossless).
func (imp *Impairment) lossModel() (faults.LossModel, error) {
	if b := imp.Burst; b != nil {
		return faults.NewGilbertElliott(b.PGoodBad, b.PBadGood, b.LossGood, b.LossBad)
	}
	if p := imp.LossProb; p != 0 {
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("faults: LossProb = %g outside [0,1]", p)
		}
		return faults.IIDLoss{P: p}, nil
	}
	return nil, nil
}

// install builds the injector in front of the bottleneck and schedules the
// blackout timeline.
func (imp *Impairment) install(eng *sim.Engine, rng *stats.RNG, bottleneck netem.Handler) (*faults.Injector, error) {
	lm, err := imp.lossModel()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errLossModel, err)
	}
	cfg := faults.Config{Loss: lm, DupProb: imp.DupProb, CorruptProb: imp.CorruptProb}
	if cfg.Loss != nil || cfg.DupProb > 0 || cfg.CorruptProb > 0 {
		cfg.RNG = rng.Fork()
	}
	inj, err := faults.NewInjector(cfg, bottleneck)
	if err != nil {
		return nil, err
	}
	sc := faults.NewScenario()
	for _, w := range imp.Blackouts {
		sc.Blackout(inj, w)
	}
	if err := sc.Install(eng); err != nil {
		return nil, err
	}
	return inj, nil
}
