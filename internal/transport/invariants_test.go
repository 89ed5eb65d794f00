package transport

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestPropSendGateRespectsCwnd is the transport-level companion of the
// internal/cc invariant harness: across random seeded networks and all
// three controllers, every data packet the sender actually emits must obey
// the window — bytes in flight never exceed cwnd at the send decision —
// with the one documented exception of PTO probes, which RFC 9002 §6.2.4
// sends regardless of cwnd. Pacing stays finite and non-negative, and
// bytes in flight never go negative, throughout the run.
func TestPropSendGateRespectsCwnd(t *testing.T) {
	makers := []struct {
		name string
		mk   func() cc.Controller
	}{
		{"reno", func() cc.Controller { return cc.NewReno(cc.Config{MSS: 1200}) }},
		{"cubic", func() cc.Controller { return cc.NewCubic(cc.Config{MSS: 1200, HyStart: true}) }},
		{"bbr", func() cc.Controller { return cc.NewBBR(cc.Config{MSS: 1200}) }},
	}
	f := func(seed uint64, pick uint8) bool {
		m := makers[int(pick)%len(makers)]
		r := stats.NewRNG(seed)
		cfg := Config{MSS: 1200}
		// A random small network: 5-45 Mbps, 4-24 ms RTT, 0.3-2.3 BDP of
		// buffer — shallow enough to force loss recovery on most seeds.
		bw := 5e6 + r.Float64()*40e6
		rtt := sim.Time(4+r.Intn(21)) * sim.Millisecond
		queue := int(float64(netem.BDPBytes(bw, rtt)) * (0.3 + 2*r.Float64()))
		// A droptail queue smaller than one data packet black-holes every
		// packet: a broken harness, not a sender finding.
		queue = max(queue, cfg.MSS)

		eng := sim.New()
		db := newDumbbell(t, eng, netem.DumbbellConfig{
			BottleneckBps: bw,
			BaseRTT:       rtt,
			QueueBytes:    queue,
		})
		var tx *Sender
		ctrl := m.mk()
		ok := true
		ptoSeen := int64(0)
		// The gate sits on the sender's own output: every emission is
		// either window-legal or attributable to a PTO that just fired.
		gate := netem.HandlerFunc(func(p *netem.Packet) {
			if tx.Stats.PTOCount > ptoSeen {
				ptoSeen = tx.Stats.PTOCount // probe: cwnd exemption
			} else if tx.BytesInFlight() > ctrl.CWND() {
				t.Logf("%s seed %d: in flight %d > cwnd %d at %v",
					m.name, seed, tx.BytesInFlight(), ctrl.CWND(), eng.Now())
				ok = false
			}
			if tx.BytesInFlight() < 0 {
				t.Logf("%s seed %d: negative bytes in flight %d", m.name, seed, tx.BytesInFlight())
				ok = false
			}
			if rate := ctrl.PacingRate(); rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
				t.Logf("%s seed %d: pacing rate %v", m.name, seed, rate)
				ok = false
			}
			db.Bottleneck.HandlePacket(p)
		})
		rx := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
			db.ReverseLink(1).HandlePacket(p)
		}), 1)
		db.AttachFlow(1, rx, netem.HandlerFunc(func(p *netem.Packet) {
			tx.HandlePacket(p)
		}))
		tx = NewSender(eng, cfg, ctrl, gate, 1)
		tx.Start()
		eng.RunUntil(2 * sim.Second)
		if rx.Stats.PacketsReceived == 0 {
			t.Logf("%s seed %d: flow moved no data; harness broken", m.name, seed)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// Regression: this cubic seed draws a 1010-byte queue, below one data
	// packet; without the clamp the flow moves no data.
	if !f(9901193066496740858, 1) {
		t.Error("cubic seed 9901193066496740858 failed")
	}
}
