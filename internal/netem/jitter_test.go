package netem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestJitterRequiresRNG(t *testing.T) {
	eng := sim.New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLink(eng, LinkConfig{RateBps: 1e6, Jitter: sim.Millisecond}, HandlerFunc(func(*Packet) {}))
}

func TestJitterDelaysWithinBound(t *testing.T) {
	eng := sim.New()
	sink := &collect{eng: eng}
	link := NewLink(eng, LinkConfig{
		RateBps:     8e6,
		Propagation: 5 * sim.Millisecond,
		Jitter:      2 * sim.Millisecond,
		JitterRNG:   stats.NewRNG(1),
	}, sink)
	for i := 0; i < 100; i++ {
		seq := int64(i)
		eng.At(sim.Time(i)*5*sim.Millisecond, func() {
			link.HandlePacket(&Packet{Seq: seq, Size: 1000, SentAt: eng.Now()})
		})
	}
	eng.Run()
	if len(sink.pkts) != 100 {
		t.Fatalf("delivered %d", len(sink.pkts))
	}
	sawJitter := false
	for i, p := range sink.pkts {
		lat := sink.at[i] - p.SentAt
		min := 6 * sim.Millisecond // 1 ms serialize + 5 ms prop
		max := min + 2*sim.Millisecond
		if lat < min || lat > max {
			t.Fatalf("latency %v outside [%v, %v]", lat, min, max)
		}
		if lat > min {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jitter never applied")
	}
}

func TestJitterPreservesFIFO(t *testing.T) {
	eng := sim.New()
	sink := &collect{eng: eng}
	link := NewLink(eng, LinkConfig{
		RateBps:     80e6,
		Propagation: sim.Millisecond,
		Jitter:      5 * sim.Millisecond, // larger than inter-packet gap
		JitterRNG:   stats.NewRNG(2),
	}, sink)
	for i := 0; i < 200; i++ {
		link.HandlePacket(&Packet{Seq: int64(i), Size: 1000})
	}
	eng.Run()
	for i, p := range sink.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("jitter reordered packets: pos %d seq %d", i, p.Seq)
		}
	}
}

func TestReorderingActuallyReorders(t *testing.T) {
	eng := sim.New()
	sink := &collect{eng: eng}
	link := NewLink(eng, LinkConfig{
		RateBps:      80e6,
		Propagation:  sim.Millisecond,
		ReorderProb:  0.2,
		ReorderDelay: 3 * sim.Millisecond,
		JitterRNG:    stats.NewRNG(3),
	}, sink)
	for i := 0; i < 500; i++ {
		link.HandlePacket(&Packet{Seq: int64(i), Size: 1000})
	}
	eng.Run()
	if len(sink.pkts) != 500 {
		t.Fatalf("delivered %d", len(sink.pkts))
	}
	outOfOrder := 0
	var maxSeen int64 = -1
	for _, p := range sink.pkts {
		if p.Seq < maxSeen {
			outOfOrder++
		}
		if p.Seq > maxSeen {
			maxSeen = p.Seq
		}
	}
	if outOfOrder == 0 {
		t.Fatal("no packets delivered out of order at 20% reorder probability")
	}
}

func TestReorderProbZeroIsFIFO(t *testing.T) {
	eng := sim.New()
	sink := &collect{eng: eng}
	link := NewLink(eng, LinkConfig{
		RateBps:      80e6,
		ReorderProb:  0,
		ReorderDelay: 10 * sim.Millisecond,
		Jitter:       sim.Microsecond,
		JitterRNG:    stats.NewRNG(4),
	}, sink)
	for i := 0; i < 300; i++ {
		link.HandlePacket(&Packet{Seq: int64(i), Size: 1000})
	}
	eng.Run()
	for i, p := range sink.pkts {
		if p.Seq != int64(i) {
			t.Fatal("reordering with zero probability")
		}
	}
}

func TestDumbbellJitterPlumbing(t *testing.T) {
	eng := sim.New()
	db := newDumbbell(t, eng, DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		QueueBytes:    1 << 20,
		Jitter:        sim.Millisecond,
		Rng:           stats.NewRNG(5),
		ReorderProb:   0.05,
		ReorderDelay:  2 * sim.Millisecond,
	})
	sink := &collect{eng: eng}
	db.AttachFlow(1, sink, &collect{eng: eng})
	for i := 0; i < 100; i++ {
		db.Bottleneck.HandlePacket(&Packet{Flow: 1, Seq: int64(i), Size: 1200, SentAt: eng.Now()})
	}
	eng.Run()
	if len(sink.pkts) != 100 {
		t.Fatalf("delivered %d", len(sink.pkts))
	}
}
