package transport

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
)

// blackholeSender builds a sender whose packets are captured, never acked
// automatically; tests inject ACKs by hand.
func blackholeSender(eng *sim.Engine, cfg Config, ctrl cc.Controller) (*Sender, *[]*netem.Packet) {
	var sent []*netem.Packet
	s := NewSender(eng, cfg, ctrl, netem.HandlerFunc(func(p *netem.Packet) {
		sent = append(sent, p)
	}), 1)
	return s, &sent
}

func ackPacket(largest int64, ranges ...netem.AckRange) *netem.Packet {
	return &netem.Packet{Flow: 1, IsAck: true, LargestAcked: largest, Ranges: ranges}
}

func TestStandardLossDetectionSparesTail(t *testing.T) {
	eng := sim.New()
	cfg := quicCfg()
	ctrl := cc.NewReno(cc.Config{MSS: 1200})
	s, _ := blackholeSender(eng, cfg, ctrl)
	s.Start()
	eng.RunUntil(sim.Millisecond)
	eng.At(10*sim.Millisecond, func() {
		s.HandlePacket(ackPacket(0, netem.AckRange{Smallest: 0, Largest: 0}))
	})
	// Packets above largestAcked are not declared lost by the time
	// threshold; only PTO probes fire.
	eng.RunUntil(40 * sim.Millisecond)
	if s.Stats.PacketsLost != 0 {
		t.Fatalf("standard detection marked %d tail packets lost", s.Stats.PacketsLost)
	}
}

func TestLossMarksFlightExtendsEvent(t *testing.T) {
	eng := sim.New()
	cfg := quicCfg()
	cfg.LossMarksFlight = true
	ctrl := cc.NewCubic(cc.Config{MSS: 1200, SpuriousLossRollback: true})
	s, sent := blackholeSender(eng, cfg, ctrl)
	s.Start()
	eng.RunUntil(sim.Millisecond)
	n := len(*sent)
	if n < 10 {
		t.Fatalf("sent %d", n)
	}
	// Establish RTT, then ack packets 4..6, leaving 0..3 to be declared
	// lost by packet threshold. Flight marking must extend the loss to the
	// tail packets sent within the horizon.
	eng.At(10*sim.Millisecond, func() {
		s.HandlePacket(ackPacket(6, netem.AckRange{Smallest: 4, Largest: 6}))
	})
	eng.RunUntil(12 * sim.Millisecond)
	if s.Stats.PacketsLost <= 4 {
		t.Fatalf("flight marking did not extend: lost=%d, want > 4", s.Stats.PacketsLost)
	}
	// Late acks of the marked tail are spurious and roll back the cubic
	// response.
	cwndAfterLoss := ctrl.CWND()
	eng.At(20*sim.Millisecond, func() {
		s.HandlePacket(ackPacket(int64(n-1), netem.AckRange{Smallest: 7, Largest: int64(n - 1)}))
	})
	eng.RunUntil(25 * sim.Millisecond)
	if s.Stats.SpuriousLosses == 0 {
		t.Fatal("no spurious losses after late tail acks")
	}
	if ctrl.CWND() <= cwndAfterLoss {
		t.Fatalf("rollback did not restore window: %d <= %d", ctrl.CWND(), cwndAfterLoss)
	}
}

func TestLossMarksFlightHarmlessWithoutLoss(t *testing.T) {
	// A clean run with flight marking enabled but no losses behaves
	// identically to standard config.
	run := func(mark bool) int64 {
		eng := sim.New()
		cfg := quicCfg()
		cfg.LossMarksFlight = mark
		ctrl := cc.NewReno(cc.Config{MSS: 1200})
		db := newDumbbell(t, eng, netem.DumbbellConfig{
			BottleneckBps: 20e6,
			BaseRTT:       10 * sim.Millisecond,
			QueueBytes:    1 << 20, // huge: no drops
		})
		var tx *Sender
		rx := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
			db.ReverseLink(1).HandlePacket(p)
		}), 1)
		db.AttachFlow(1, rx, netem.HandlerFunc(func(p *netem.Packet) { tx.HandlePacket(p) }))
		tx = NewSender(eng, cfg, ctrl, db.Bottleneck, 1)
		tx.Start()
		eng.RunUntil(3 * sim.Second)
		return rx.Stats.BytesReceived
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("flight marking changed a lossless run: %d vs %d", a, b)
	}
}

func TestReceiverBoundsAckRanges(t *testing.T) {
	eng := sim.New()
	cfg := quicCfg()
	cfg.MaxAckRanges = 4
	var last *netem.Packet
	rx := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) { last = p }), 1)
	// Create many gaps: every other packet.
	for i := int64(0); i < 40; i += 2 {
		rx.HandlePacket(&netem.Packet{Flow: 1, Seq: i, Size: 1200})
	}
	if last == nil {
		t.Fatal("no ack")
	}
	if len(last.Ranges) > 4 {
		t.Fatalf("ranges = %d, want <= 4", len(last.Ranges))
	}
	// Newest first.
	if last.Ranges[0].Largest != last.LargestAcked {
		t.Fatalf("first range %v does not cover largest %d", last.Ranges[0], last.LargestAcked)
	}
}

func TestReceiverHistoryCompaction(t *testing.T) {
	eng := sim.New()
	cfg := quicCfg()
	cfg.MaxAckRanges = 4
	rx := NewReceiver(eng, cfg, netem.HandlerFunc(func(*netem.Packet) {}), 1)
	// Tons of isolated ranges; internal storage must stay bounded.
	for i := int64(0); i < 10000; i += 2 {
		rx.HandlePacket(&netem.Packet{Flow: 1, Seq: i, Size: 1200})
	}
	if n := len(rx.ranges); n > 16*cfg.MaxAckRanges {
		t.Fatalf("range history unbounded: %d", n)
	}
}

func TestQuantizedLossTimerStillFires(t *testing.T) {
	eng := sim.New()
	cfg := quicCfg()
	cfg.TimerGranularity = 8 * sim.Millisecond
	ctrl := cc.NewReno(cc.Config{MSS: 1200})
	s, _ := blackholeSender(eng, cfg, ctrl)
	s.Start()
	eng.RunUntil(5 * sim.Second)
	if s.Stats.PTOCount == 0 {
		t.Fatal("coarse timers broke the PTO path")
	}
}
