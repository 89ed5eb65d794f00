package netem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestNewLinkEValidation(t *testing.T) {
	eng := sim.New()
	sink := HandlerFunc(func(*Packet) {})
	valid := LinkConfig{RateBps: 1e6, Propagation: sim.Millisecond}

	cases := []struct {
		name string
		eng  *sim.Engine
		cfg  LinkConfig
		dst  Handler
	}{
		{"nil engine", nil, valid, sink},
		{"zero rate", eng, LinkConfig{RateBps: 0}, sink},
		{"negative rate", eng, LinkConfig{RateBps: -1}, sink},
		{"negative propagation", eng, LinkConfig{RateBps: 1e6, Propagation: -1}, sink},
		{"nil destination", eng, valid, nil},
		{"jitter without rng", eng, LinkConfig{RateBps: 1e6, Jitter: sim.Millisecond}, sink},
		{"reorder without rng", eng, LinkConfig{RateBps: 1e6, ReorderProb: 0.1}, sink},
		{"reorder prob > 1", eng, LinkConfig{RateBps: 1e6, ReorderProb: 1.5, JitterRNG: stats.NewRNG(1)}, sink},
	}
	for _, tc := range cases {
		if _, err := NewLinkE(tc.eng, tc.cfg, tc.dst); err == nil {
			t.Errorf("%s: NewLinkE accepted an invalid configuration", tc.name)
		}
	}
	if _, err := NewLinkE(eng, valid, sink); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}

func TestNewLinkPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink did not panic on zero rate")
		}
	}()
	NewLink(sim.New(), LinkConfig{}, HandlerFunc(func(*Packet) {}))
}

func TestNewDumbbellEValidation(t *testing.T) {
	eng := sim.New()
	if _, err := NewDumbbellE(eng, DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		Jitter:        sim.Millisecond, // no Rng: must be rejected
	}); err == nil {
		t.Error("NewDumbbellE accepted Jitter without Rng")
	}
	if _, err := NewDumbbellE(eng, DumbbellConfig{BaseRTT: 10 * sim.Millisecond}); err == nil {
		t.Error("NewDumbbellE accepted a zero-rate bottleneck")
	}
	if _, err := NewDumbbellE(eng, DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
	}); err != nil {
		t.Fatalf("valid dumbbell rejected: %v", err)
	}
}
