package transport

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
)

// startFinite wires one finite flow onto db and starts it, returning the
// sender and a pointer to its completion count.
func startFinite(eng *sim.Engine, db *netem.Dumbbell, flow int, bytes int64,
	snd *Sender, rcv *Receiver) *int {
	done := new(int)
	snd.SetFlowBytes(bytes)
	snd.OnComplete(func() { *done++ })
	db.AttachFlow(flow, rcv, netem.HandlerFunc(func(p *netem.Packet) {
		snd.HandlePacket(p)
	}))
	snd.Start()
	return done
}

func TestFiniteFlowCompletes(t *testing.T) {
	eng := sim.New()
	db := newDumbbell(t, eng, netem.DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		// Unlimited buffer: slow-start overshoot queues instead of
		// dropping, so the clean-path assertions below see zero drops.
		QueueBytes: 0,
	})
	cfg := quicCfg()
	const flowBytes = 2_000_000
	rcv := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
		db.ReverseLink(1).HandlePacket(p)
	}), 1)
	snd := NewSender(eng, cfg, cc.NewCubic(cc.Config{MSS: 1200, HyStart: true}), db.Bottleneck, 1)
	done := startFinite(eng, db, 1, flowBytes, snd, rcv)

	eng.RunUntil(30 * sim.Second)
	if *done != 1 {
		t.Fatalf("OnComplete fired %d times, want exactly 1", *done)
	}
	if !snd.completed {
		t.Fatalf("Completed() false after OnComplete")
	}
	st := snd.Stats
	if st.BytesAcked < flowBytes {
		t.Errorf("completed with %d bytes acked, want >= %d", st.BytesAcked, flowBytes)
	}
	// Overshoot bound: the send gate re-checks acked+inflight before every
	// emission, so at most one quantum beyond the flow size leaks out (plus
	// loss make-up and PTO probes, absent on this clean path).
	if st.BytesAcked >= flowBytes+int64(cfg.withDefaults().MSS) {
		t.Errorf("acked %d bytes for a %d-byte flow: gate leaked", st.BytesAcked, flowBytes)
	}
	if st.PacketsLost != 0 {
		t.Errorf("unexpected losses on an uncongested path: %d", st.PacketsLost)
	}
	// Completion stopped the sender: the event queue drains with nothing
	// left in flight.
	eng.Run()
	if snd.BytesInFlight() != 0 {
		t.Errorf("%d bytes in flight after drain", snd.BytesInFlight())
	}
}

// TestFiniteFlowCompletesUnderLoss forces drops with a shallow buffer: lost
// bytes must be made up with fresh sequence numbers (the gate reopens), so
// the flow still completes.
func TestFiniteFlowCompletesUnderLoss(t *testing.T) {
	eng := sim.New()
	db := newDumbbell(t, eng, netem.DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		QueueBytes:    netem.BDPBytes(20e6, 10*sim.Millisecond) / 10,
	})
	cfg := quicCfg()
	const flowBytes = 4_000_000
	rcv := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
		db.ReverseLink(1).HandlePacket(p)
	}), 1)
	snd := NewSender(eng, cfg, cc.NewCubic(cc.Config{MSS: 1200, HyStart: true}), db.Bottleneck, 1)
	done := startFinite(eng, db, 1, flowBytes, snd, rcv)

	eng.RunUntil(60 * sim.Second)
	st := snd.Stats
	if st.PacketsLost == 0 {
		t.Fatalf("shallow buffer produced no losses; test proves nothing")
	}
	if *done != 1 {
		t.Fatalf("flow with losses never completed (acked %d of %d)", st.BytesAcked, flowBytes)
	}
	if st.BytesAcked < flowBytes {
		t.Errorf("completed with %d bytes acked, want >= %d", st.BytesAcked, flowBytes)
	}
	// Send-gate bound, loss-adjusted: before every cwnd-gated emission
	// acked+inflight < flowBytes, so sent <= flowBytes + lost + one MSS,
	// plus one MSS per PTO probe (probes bypass the gate on purpose).
	mss := int64(cfg.withDefaults().MSS)
	if limit := flowBytes + st.BytesLost + mss*(1+st.PTOCount); st.BytesSent > limit {
		t.Errorf("sent %d bytes > gate bound %d (flow %d + lost %d + slack)",
			st.BytesSent, limit, int64(flowBytes), st.BytesLost)
	}
}

// runSequentialFlows runs two identical finite flows back to back on one
// dumbbell. When recycle is true the second flow reuses the first flow's
// sender/receiver via ResetFlow; otherwise it gets fresh objects. Both
// variants start the second flow at the identical virtual instant, so its
// stats must match exactly if ResetFlow restores a truly fresh state.
func runSequentialFlows(t *testing.T, recycle bool) (SenderStats, ReceiverStats) {
	t.Helper()
	eng := sim.New()
	db := newDumbbell(t, eng, netem.DumbbellConfig{
		BottleneckBps: 20e6,
		BaseRTT:       10 * sim.Millisecond,
		QueueBytes:    netem.BDPBytes(20e6, 10*sim.Millisecond) / 4, // lossy: exercise loss state reset
	})
	cfg := quicCfg()
	newCtrl := func() cc.Controller { return cc.NewCubic(cc.Config{MSS: 1200, HyStart: true}) }
	const flowBytes = 2_000_000

	rcv1 := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
		db.ReverseLink(1).HandlePacket(p)
	}), 1)
	snd1 := NewSender(eng, cfg, newCtrl(), db.Bottleneck, 1)
	done1 := startFinite(eng, db, 1, flowBytes, snd1, rcv1)
	eng.Run() // first flow completes and the network drains fully
	if *done1 != 1 {
		t.Fatalf("first flow never completed")
	}
	rcv1.Stop()

	var snd2 *Sender
	var rcv2 *Receiver
	revOut := netem.HandlerFunc(func(p *netem.Packet) {
		db.ReverseLink(2).HandlePacket(p)
	})
	if recycle {
		snd2, rcv2 = snd1, rcv1
		rcv2.ResetFlow(cfg, revOut, 2)
		snd2.ResetFlow(cfg, newCtrl(), db.Bottleneck, 2)
	} else {
		rcv2 = NewReceiver(eng, cfg, revOut, 2)
		snd2 = NewSender(eng, cfg, newCtrl(), db.Bottleneck, 2)
	}
	done2 := startFinite(eng, db, 2, flowBytes, snd2, rcv2)
	eng.Run()
	if *done2 != 1 {
		t.Fatalf("second flow never completed (recycle=%v)", recycle)
	}
	return snd2.Stats, rcv2.Stats
}

// TestResetFlowMatchesFreshSender pins the recycling contract: a sender and
// receiver reset in place behave bit-identically to freshly constructed
// ones in the same scenario.
func TestResetFlowMatchesFreshSender(t *testing.T) {
	freshS, freshR := runSequentialFlows(t, false)
	recycS, recycR := runSequentialFlows(t, true)
	if freshS != recycS {
		t.Errorf("recycled sender diverged from fresh:\nfresh   %+v\nrecycled %+v", freshS, recycS)
	}
	if freshR != recycR {
		t.Errorf("recycled receiver diverged from fresh:\nfresh   %+v\nrecycled %+v", freshR, recycR)
	}
}

// TestFiniteFlowSendGateProperty samples the gate invariant while a lossy
// finite flow runs: outside PTO probes, bytes sent never outrun the flow
// size by more than lost bytes plus one MSS.
func TestFiniteFlowSendGateProperty(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		eng := sim.New()
		db := newDumbbell(t, eng, netem.DumbbellConfig{
			BottleneckBps: 20e6,
			BaseRTT:       10 * sim.Millisecond,
			QueueBytes:    netem.BDPBytes(20e6, 10*sim.Millisecond) / int(2*seed),
		})
		cfg := quicCfg()
		mss := int64(cfg.withDefaults().MSS)
		const flowBytes = 3_000_000
		rcv := NewReceiver(eng, cfg, netem.HandlerFunc(func(p *netem.Packet) {
			db.ReverseLink(1).HandlePacket(p)
		}), 1)
		snd := NewSender(eng, cfg, cc.NewCubic(cc.Config{MSS: 1200}), db.Bottleneck, 1)
		startFinite(eng, db, 1, flowBytes, snd, rcv)

		for step := sim.Time(0); step < 20*sim.Second; step += 5 * sim.Millisecond {
			eng.RunUntil(step)
			st := snd.Stats
			if limit := int64(flowBytes) + st.BytesLost + mss*(1+st.PTOCount); st.BytesSent > limit {
				t.Fatalf("seed %d t=%v: sent %d > bound %d (lost %d, pto %d)",
					seed, eng.Now(), st.BytesSent, limit, st.BytesLost, st.PTOCount)
			}
			if snd.completed {
				break
			}
		}
		if !snd.completed {
			t.Errorf("seed %d: flow never completed", seed)
		}
	}
}
