package faults

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// timedCollector records delivery times.
type timedCollector struct {
	eng   *sim.Engine
	seqs  []int64
	times []sim.Time
}

func (c *timedCollector) HandlePacket(p *netem.Packet) {
	c.seqs = append(c.seqs, p.Seq)
	c.times = append(c.times, c.eng.Now())
}

// TestScenarioBlackoutGap drives packets through injector -> link with a
// blackout window [300ms, 500ms) and checks the delivery gap: nothing sent
// inside the window arrives, traffic before and after does.
func TestScenarioBlackoutGap(t *testing.T) {
	eng := sim.New()
	dst := &timedCollector{eng: eng}
	link, err := netem.NewLinkE(eng, netem.LinkConfig{
		RateBps:     100e6,
		Propagation: sim.Millisecond,
	}, dst)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(Config{}, link)
	if err != nil {
		t.Fatal(err)
	}
	w := Window{From: 300 * sim.Millisecond, To: 500 * sim.Millisecond}
	sc := NewScenario().Blackout(in, w)
	if err := sc.Install(eng); err != nil {
		t.Fatal(err)
	}
	// One packet every 10ms for 1s. Scenario steps were scheduled first, so
	// at the window edges the state flips before the same-instant send.
	for i := 0; i < 100; i++ {
		seq := int64(i)
		at := sim.Time(i) * 10 * sim.Millisecond
		eng.At(at, func() {
			in.HandlePacket(&netem.Packet{Flow: 1, Seq: seq, Size: 1200})
		})
	}
	eng.Run()
	if eng.Err() != nil {
		t.Fatalf("engine error: %v", eng.Err())
	}

	for i, seq := range dst.seqs {
		sent := sim.Time(seq) * 10 * sim.Millisecond
		if sent >= w.From && sent < w.To {
			t.Errorf("packet %d sent at %v inside the blackout was delivered at %v", seq, sent, dst.times[i])
		}
	}
	// 100 sends minus the 20 inside [300ms, 500ms).
	if len(dst.seqs) != 80 {
		t.Errorf("delivered %d packets, want 80", len(dst.seqs))
	}
	if in.Stats.Blackholed != 20 {
		t.Errorf("Stats.Blackholed = %d, want 20", in.Stats.Blackholed)
	}
	// The delivery timeline must show the outage as a gap spanning the
	// window.
	var before, after sim.Time = -1, -1
	for _, dt := range dst.times {
		if dt < w.From+sim.Millisecond {
			before = dt
		} else if after == -1 {
			after = dt
		}
	}
	if before == -1 || after == -1 {
		t.Fatal("expected deliveries on both sides of the blackout")
	}
	if gap := after - before; gap < 200*sim.Millisecond {
		t.Errorf("delivery gap %v, want >= 200ms", gap)
	}
}

// TestScenarioFlapPattern: a flapping link is a run of blackout windows on
// one timeline (as in a multi-window Impairment); three Blackouts carve the
// expected repeating down/up pattern out of [0, 300ms).
func TestScenarioFlapPattern(t *testing.T) {
	eng := sim.New()
	dst := &timedCollector{eng: eng}
	link, err := netem.NewLinkE(eng, netem.LinkConfig{
		RateBps:     100e6,
		Propagation: sim.Millisecond,
	}, dst)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(Config{}, link)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario()
	for from := sim.Time(0); from < 300*sim.Millisecond; from += 100 * sim.Millisecond {
		sc.Blackout(in, Window{From: from, To: from + 50*sim.Millisecond})
	}
	if err := sc.Install(eng); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		seq := int64(i)
		eng.At(sim.Time(i)*10*sim.Millisecond, func() {
			in.HandlePacket(&netem.Packet{Flow: 1, Seq: seq, Size: 1200})
		})
	}
	eng.Run()

	// Down windows: [0,50), [100,150), [200,250) ms. Sends are at 10ms
	// multiples, so seq k is blackholed iff (k/5) is even.
	delivered := map[int64]bool{}
	for _, s := range dst.seqs {
		delivered[s] = true
	}
	for k := int64(0); k < 30; k++ {
		wantDown := (k/5)%2 == 0
		if wantDown && delivered[k] {
			t.Errorf("packet %d sent in a down window was delivered", k)
		}
		if !wantDown && !delivered[k] {
			t.Errorf("packet %d sent in an up window was dropped", k)
		}
	}
	if in.Stats.Blackholed != 15 || in.Stats.Passed != 15 {
		t.Errorf("stats = %+v, want 15 blackholed / 15 passed", in.Stats)
	}
}

func TestScenarioValidation(t *testing.T) {
	eng := sim.New()
	dst := &timedCollector{eng: eng}
	link := netem.NewLink(eng, netem.LinkConfig{RateBps: 1e6}, dst)
	in, _ := NewInjector(Config{}, link)

	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"negative time", NewScenario().At(-1, "x", func() {})},
		{"nil action", NewScenario().At(0, "x", nil)},
		{"nil injector blackout", NewScenario().Blackout(nil, Window{From: 0, To: 1})},
		{"empty blackout window", NewScenario().Blackout(in, Window{From: 5, To: 5})},
	}
	for _, tc := range cases {
		if tc.sc.err == nil {
			t.Errorf("%s: builder recorded no error", tc.name)
		}
		if err := tc.sc.Install(eng); err == nil {
			t.Errorf("%s: Install succeeded on an invalid timeline", tc.name)
		}
	}
	if eng.Run(); eng.Fired() != 0 {
		t.Errorf("invalid timelines scheduled %d events; want none", eng.Fired())
	}

	// A step in the engine's past must be refused atomically.
	eng.At(10*sim.Millisecond, func() {})
	eng.Run()
	late := NewScenario().At(5*sim.Millisecond, "late", func() {})
	fired := eng.Fired()
	if err := late.Install(eng); err == nil {
		t.Error("Install accepted a step in the engine's past")
	}
	if eng.Run(); eng.Fired() != fired {
		t.Errorf("rejected timeline left %d events scheduled", eng.Fired()-fired)
	}

	if err := NewScenario().At(0, "ok", func() {}).Install(nil); err == nil {
		t.Error("Install accepted a nil engine")
	}
}
