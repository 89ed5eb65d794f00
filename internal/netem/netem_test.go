package netem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// collect gathers delivered packets with their delivery times.
type collect struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
}

func (c *collect) HandlePacket(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

// newDumbbell builds a dumbbell through NewDumbbellE, failing the test on
// a configuration error.
func newDumbbell(t testing.TB, eng *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	t.Helper()
	db, err := NewDumbbellE(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mkLink(eng *sim.Engine, rate float64, prop sim.Time, queue int) (*Link, *collect) {
	sink := &collect{eng: eng}
	return NewLink(eng, LinkConfig{RateBps: rate, Propagation: prop, QueueBytes: queue}, sink), sink
}

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	eng := sim.New()
	// 8 Mbps => 1000-byte packet serializes in 1 ms.
	link, sink := mkLink(eng, 8e6, 5*sim.Millisecond, 0)
	link.HandlePacket(&Packet{Size: 1000})
	eng.Run()
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(sink.pkts))
	}
	want := 6 * sim.Millisecond // 1 ms serialize + 5 ms propagate
	if sink.at[0] != want {
		t.Fatalf("delivered at %v, want %v", sink.at[0], want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng := sim.New()
	link, sink := mkLink(eng, 8e6, 0, 0)
	for i := 0; i < 3; i++ {
		link.HandlePacket(&Packet{Seq: int64(i), Size: 1000})
	}
	eng.Run()
	// Packets serialize sequentially: 1 ms, 2 ms, 3 ms.
	for i, want := range []sim.Time{1 * sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond} {
		if sink.at[i] != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, sink.at[i], want)
		}
	}
}

func TestLinkPreservesFIFO(t *testing.T) {
	eng := sim.New()
	link, sink := mkLink(eng, 8e6, 2*sim.Millisecond, 0)
	for i := 0; i < 50; i++ {
		seq := int64(i)
		eng.At(sim.Time(i)*100*sim.Microsecond, func() {
			link.HandlePacket(&Packet{Seq: seq, Size: 1200})
		})
	}
	eng.Run()
	if len(sink.pkts) != 50 {
		t.Fatalf("delivered %d, want 50", len(sink.pkts))
	}
	for i, p := range sink.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("reordered: position %d has seq %d", i, p.Seq)
		}
	}
}

func TestDroptailDropsWhenFull(t *testing.T) {
	eng := sim.New()
	// Queue fits exactly 2 x 1000-byte packets.
	link, sink := mkLink(eng, 8e6, 0, 2000)
	for i := 0; i < 5; i++ {
		link.HandlePacket(&Packet{Seq: int64(i), Size: 1000})
	}
	eng.Run()
	if len(sink.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(sink.pkts))
	}
	if link.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", link.Dropped)
	}
	if link.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2", link.Delivered)
	}
}

func TestQueueDrainsAndAcceptsAgain(t *testing.T) {
	eng := sim.New()
	link, sink := mkLink(eng, 8e6, 0, 2000)
	link.HandlePacket(&Packet{Seq: 0, Size: 1000})
	link.HandlePacket(&Packet{Seq: 1, Size: 1000})
	link.HandlePacket(&Packet{Seq: 2, Size: 1000}) // dropped
	// After 2 ms both packets have left the queue.
	eng.At(2500*sim.Microsecond, func() {
		link.HandlePacket(&Packet{Seq: 3, Size: 1000})
	})
	eng.Run()
	if len(sink.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(sink.pkts))
	}
	if sink.pkts[2].Seq != 3 {
		t.Fatalf("last delivered seq = %d, want 3", sink.pkts[2].Seq)
	}
}

func TestQueueNeverExceedsCapacity(t *testing.T) {
	eng := sim.New()
	link, _ := mkLink(eng, 8e6, 0, 5000)
	maxSeen := 0
	link.Tap(func(ev LinkEvent) {
		if ev.QueueB > maxSeen {
			maxSeen = ev.QueueB
		}
	})
	r := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		at := sim.Time(r.Intn(10000)) * sim.Microsecond
		eng.At(at, func() {
			link.HandlePacket(&Packet{Size: 800 + r.Intn(700)})
		})
	}
	eng.Run()
	if maxSeen > 5000 {
		t.Fatalf("queue occupancy %d exceeded capacity 5000", maxSeen)
	}
}

func TestLinkRateIsRespected(t *testing.T) {
	eng := sim.New()
	// 20 Mbps; send 1 MB and check delivery takes ~0.4 s.
	link, sink := mkLink(eng, 20e6, 0, 0)
	const n, size = 1000, 1000
	for i := 0; i < n; i++ {
		link.HandlePacket(&Packet{Size: size})
	}
	eng.Run()
	last := sink.at[len(sink.at)-1]
	wantSec := float64(n*size*8) / 20e6
	if got := last.Seconds(); got < wantSec*0.999 || got > wantSec*1.001 {
		t.Fatalf("drain time %.4fs, want %.4fs", got, wantSec)
	}
}

func TestSojournMeasuresQueueing(t *testing.T) {
	eng := sim.New()
	link, _ := mkLink(eng, 8e6, 3*sim.Millisecond, 0)
	var sojourns []sim.Time
	link.Tap(func(ev LinkEvent) {
		if ev.Kind == Deliver {
			sojourns = append(sojourns, ev.Sojourn)
		}
	})
	link.HandlePacket(&Packet{Size: 1000})
	link.HandlePacket(&Packet{Size: 1000})
	eng.Run()
	// First: 1 ms serialize + 3 ms prop = 4 ms; second waits 1 ms more.
	if sojourns[0] != 4*sim.Millisecond || sojourns[1] != 5*sim.Millisecond {
		t.Fatalf("sojourns = %v", sojourns)
	}
}

func TestTapSeesDropEvents(t *testing.T) {
	eng := sim.New()
	link, _ := mkLink(eng, 8e6, 0, 1000)
	var kinds []EventKind
	link.Tap(func(ev LinkEvent) { kinds = append(kinds, ev.Kind) })
	link.HandlePacket(&Packet{Size: 1000})
	link.HandlePacket(&Packet{Size: 1000}) // dropped
	eng.Run()
	want := []EventKind{Enqueue, Drop, Deliver}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if Enqueue.String() != "enqueue" || Drop.String() != "drop" || Deliver.String() != "deliver" {
		t.Fatal("EventKind strings wrong")
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestNewLinkValidation(t *testing.T) {
	eng := sim.New()
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewLink(eng, LinkConfig{RateBps: 0}, HandlerFunc(func(*Packet) {})) })
	mustPanic(func() { NewLink(eng, LinkConfig{RateBps: 1e6, Propagation: -1}, HandlerFunc(func(*Packet) {})) })
	mustPanic(func() { NewLink(eng, LinkConfig{RateBps: 1e6}, nil) })
}

func TestDemuxRouting(t *testing.T) {
	eng := sim.New()
	d := NewDemux()
	a := &collect{eng: eng}
	b := &collect{eng: eng}
	d.Register(1, a)
	d.Register(2, b)
	d.HandlePacket(&Packet{Flow: 1, Seq: 10})
	d.HandlePacket(&Packet{Flow: 2, Seq: 20})
	d.HandlePacket(&Packet{Flow: 3, Seq: 30}) // unknown: dropped
	if len(a.pkts) != 1 || a.pkts[0].Seq != 10 {
		t.Fatalf("flow 1 got %v", a.pkts)
	}
	if len(b.pkts) != 1 || b.pkts[0].Seq != 20 {
		t.Fatalf("flow 2 got %v", b.pkts)
	}
}

func TestDumbbellRTT(t *testing.T) {
	eng := sim.New()
	db := newDumbbell(t, eng, DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		QueueBytes:    100000,
	})
	dataSink := &collect{eng: eng}
	ackSink := &collect{eng: eng}
	sendData, sendAck := db.AttachFlow(1, dataSink, ackSink)

	var rtt sim.Time
	start := eng.Now()
	// Data packet out, then immediately ACK back on delivery.
	db.fwdDemux.Register(1, HandlerFunc(func(p *Packet) {
		dataSink.HandlePacket(p)
		sendAck.HandlePacket(&Packet{Flow: 1, IsAck: true, Size: 40})
	}))
	db.revDemux.Register(1, HandlerFunc(func(p *Packet) {
		rtt = eng.Now() - start
	}))
	sendData.HandlePacket(&Packet{Flow: 1, Size: 1200})
	eng.Run()
	// RTT = base 10 ms + serialization (1200B@20Mbps = 0.48 ms + 40B@800Mbps ~ 0).
	if rtt < 10*sim.Millisecond || rtt > 11*sim.Millisecond {
		t.Fatalf("RTT = %v, want ~10.5ms", rtt)
	}
}

func TestDumbbellSharedBottleneckIsolatedReverse(t *testing.T) {
	eng := sim.New()
	db := newDumbbell(t, eng, DumbbellConfig{
		BottleneckBps: 8e6,
		BaseRTT:       2 * sim.Millisecond,
		QueueBytes:    3000,
	})
	s1 := &collect{eng: eng}
	s2 := &collect{eng: eng}
	a1 := &collect{eng: eng}
	a2 := &collect{eng: eng}
	send1, _ := db.AttachFlow(1, s1, a1)
	send2, _ := db.AttachFlow(2, s2, a2)
	if send1 != db.Bottleneck || send2 != db.Bottleneck {
		t.Fatal("data paths should share the bottleneck link")
	}
	if db.ReverseLink(1) == db.ReverseLink(2) {
		t.Fatal("reverse paths should be per-flow")
	}
	// Flood from flow 1; flow 2's single packet may be dropped at the
	// shared queue, demonstrating contention.
	for i := 0; i < 10; i++ {
		send1.HandlePacket(&Packet{Flow: 1, Seq: int64(i), Size: 1000})
	}
	send2.HandlePacket(&Packet{Flow: 2, Seq: 0, Size: 1000})
	eng.Run()
	total := len(s1.pkts) + len(s2.pkts)
	if total+int(db.Bottleneck.Dropped) != 11 {
		t.Fatalf("accounting broken: delivered %d dropped %d", total, db.Bottleneck.Dropped)
	}
	if db.Bottleneck.Dropped == 0 {
		t.Fatal("expected shared-queue drops under flood")
	}
}

func TestBDPBytes(t *testing.T) {
	// 20 Mbps * 10 ms = 25000 bytes.
	if got := BDPBytes(20e6, 10*sim.Millisecond); got != 25000 {
		t.Fatalf("BDP = %d, want 25000", got)
	}
	eng := sim.New()
	db := newDumbbell(t, eng, DumbbellConfig{BottleneckBps: 20e6, BaseRTT: 10 * sim.Millisecond})
	if BDPBytes(db.cfg.BottleneckBps, db.cfg.BaseRTT) != 25000 {
		t.Fatalf("dumbbell BDP = %d", BDPBytes(db.cfg.BottleneckBps, db.cfg.BaseRTT))
	}
}

func TestReverseDefaultsUncongested(t *testing.T) {
	eng := sim.New()
	db := newDumbbell(t, eng, DumbbellConfig{BottleneckBps: 20e6, BaseRTT: 10 * sim.Millisecond})
	if got := db.ReverseLink(1); got != nil {
		t.Fatal("reverse link exists before AttachFlow")
	}
	db.AttachFlow(1, &collect{eng: eng}, &collect{eng: eng})
	rev := db.ReverseLink(1)
	if rev.rateBps != 20e6*40 {
		t.Fatalf("reverse rate = %v", rev.rateBps)
	}
	if rev.Capacity() != 0 {
		t.Fatal("reverse path should be unlimited")
	}
}

func BenchmarkLinkThroughput(b *testing.B) {
	eng := sim.New()
	link, _ := mkLink(eng, 100e6, sim.Millisecond, 64000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.HandlePacket(&Packet{Size: 1200})
		eng.Step()
		eng.Step()
	}
}
