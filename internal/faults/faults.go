// Package faults is the deterministic fault-injection layer of the
// emulator. It gives internal/netem topologies the impairment vocabulary of
// tc-netem / pumba — i.i.d. and bursty (Gilbert–Elliott) loss, duplication,
// corruption, blackouts — plus a Scenario timeline for timed events
// (blackout windows) and a watchdog
// that aborts runaway or wedged simulations with a diagnostic.
//
// Everything is driven by an explicit stats.RNG and the internal/sim
// virtual clock, so an impairment trace is a pure function of the seed:
// the same seed always damages the same packets at the same virtual times.
package faults

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/stats"
)

// LossModel decides, packet by packet, whether the next packet is lost.
// Implementations may keep state (burst models); they advance it on every
// call, drawing any randomness from rng so traces stay seed-deterministic.
type LossModel interface {
	Drop(rng *stats.RNG) bool
}

// IIDLoss drops each packet independently with probability P — tc-netem's
// plain `loss P%`.
type IIDLoss struct{ P float64 }

// Drop implements LossModel.
func (l IIDLoss) Drop(rng *stats.RNG) bool { return rng.Float64() < l.P }

// GilbertElliott is the classic two-state burst-loss channel: a Good and a
// Bad state with per-packet transition probabilities and a per-state loss
// probability. With LossGood=0 and LossBad=1 it reduces to the simple
// Gilbert model (`loss gemodel` in tc-netem). Create it with
// NewGilbertElliott, which validates the parameters; the model is stateful
// and must not be shared across independent runs.
type GilbertElliott struct {
	// PGoodBad / PBadGood are the per-packet transition probabilities
	// Good→Bad and Bad→Good.
	PGoodBad, PBadGood float64
	// LossGood / LossBad are the loss probabilities while in each state.
	LossGood, LossBad float64

	bad bool
}

// NewGilbertElliott validates the channel parameters and returns a model
// starting in the Good state.
func NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad float64) (*GilbertElliott, error) {
	for _, v := range []struct {
		name string
		p    float64
	}{
		{"PGoodBad", pGoodBad}, {"PBadGood", pBadGood},
		{"LossGood", lossGood}, {"LossBad", lossBad},
	} {
		if v.p < 0 || v.p > 1 {
			return nil, fmt.Errorf("faults: GilbertElliott %s = %g outside [0,1]", v.name, v.p)
		}
	}
	return &GilbertElliott{PGoodBad: pGoodBad, PBadGood: pBadGood, LossGood: lossGood, LossBad: lossBad}, nil
}

// Drop implements LossModel: the loss draw uses the current state, then the
// state advances (loss-then-transition ordering, the convention the tests
// pin).
func (g *GilbertElliott) Drop(rng *stats.RNG) bool {
	var lost bool
	if g.bad {
		lost = rng.Float64() < g.LossBad
	} else {
		lost = rng.Float64() < g.LossGood
	}
	if g.bad {
		if rng.Float64() < g.PBadGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGoodBad {
			g.bad = true
		}
	}
	return lost
}

// MeanLoss returns the stationary loss rate of the channel.
func (g *GilbertElliott) MeanLoss() float64 {
	denom := g.PGoodBad + g.PBadGood
	if denom == 0 {
		// Absorbing in the start state.
		return g.LossGood
	}
	piBad := g.PGoodBad / denom
	return piBad*g.LossBad + (1-piBad)*g.LossGood
}

// Config configures an Injector. Impairments are applied in a fixed order
// per packet — blackout, loss, corruption, duplication — and random draws
// happen only for the impairments that are enabled, so enabling a new
// impairment never perturbs the draw sequence of the others.
type Config struct {
	// RNG drives all probabilistic decisions. Required whenever Loss,
	// DupProb, or CorruptProb is set.
	RNG *stats.RNG
	// Loss, when non-nil, is consulted for every packet.
	Loss LossModel
	// DupProb duplicates a delivered packet with this probability.
	DupProb float64
	// CorruptProb flags a delivered packet as Corrupted with this
	// probability. The packet still occupies its full Size on the wire;
	// the receiving endpoint discards it.
	CorruptProb float64
}

// InjectorStats aggregates injector counters.
type InjectorStats struct {
	Seen       uint64
	Passed     uint64
	Lost       uint64
	Blackholed uint64
	Corrupted  uint64
	Duplicated uint64
}

// Injector applies the configured impairments to every packet it handles
// and forwards survivors to dst. It implements netem.Handler, so it
// composes anywhere in a topology: in front of a link to model a lossy
// access segment, or behind it to model receiver-side damage.
type Injector struct {
	cfg  Config
	dst  netem.Handler
	down bool

	Stats InjectorStats
}

// NewInjector validates cfg and builds an injector delivering to dst.
func NewInjector(cfg Config, dst netem.Handler) (*Injector, error) {
	if dst == nil {
		return nil, fmt.Errorf("faults: nil destination handler")
	}
	if cfg.DupProb < 0 || cfg.DupProb > 1 {
		return nil, fmt.Errorf("faults: DupProb %g outside [0,1]", cfg.DupProb)
	}
	if cfg.CorruptProb < 0 || cfg.CorruptProb > 1 {
		return nil, fmt.Errorf("faults: CorruptProb %g outside [0,1]", cfg.CorruptProb)
	}
	if (cfg.Loss != nil || cfg.DupProb > 0 || cfg.CorruptProb > 0) && cfg.RNG == nil {
		return nil, fmt.Errorf("faults: probabilistic impairments require Config.RNG")
	}
	return &Injector{cfg: cfg, dst: dst}, nil
}

// SetDown switches the blackout state: while down, every packet is
// blackholed. Scenario.Blackout drives this on the virtual clock.
func (in *Injector) SetDown(down bool) { in.down = down }

// HandlePacket implements netem.Handler.
func (in *Injector) HandlePacket(pkt *netem.Packet) {
	in.Stats.Seen++
	if in.down {
		in.Stats.Blackholed++
		netem.ReleasePacket(pkt) // terminal: swallowed by the blackout
		return
	}
	if in.cfg.Loss != nil && in.cfg.Loss.Drop(in.cfg.RNG) {
		in.Stats.Lost++
		netem.ReleasePacket(pkt) // terminal: injected loss
		return
	}
	if in.cfg.CorruptProb > 0 && in.cfg.RNG.Float64() < in.cfg.CorruptProb {
		in.Stats.Corrupted++
		cp := netem.ClonePacket(pkt)
		cp.Corrupted = true
		netem.ReleasePacket(pkt) // the clone travels on in its place
		in.dst.HandlePacket(cp)
		return
	}
	in.Stats.Passed++
	// Decide on duplication (and clone) before forwarding: the destination
	// may consume and recycle pkt synchronously (e.g. a droptail discard),
	// after which its fields are no longer ours to read.
	var dup *netem.Packet
	if in.cfg.DupProb > 0 && in.cfg.RNG.Float64() < in.cfg.DupProb {
		in.Stats.Duplicated++
		dup = netem.ClonePacket(pkt)
	}
	in.dst.HandlePacket(pkt)
	if dup != nil {
		in.dst.HandlePacket(dup)
	}
}
