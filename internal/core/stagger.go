package core

import (
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// RunStaggeredTrial runs a two-flow trial, flow B starting `delay` after A
// (§6: "the impact of different start times ... on fairness"). Mean
// throughputs are computed over the overlap window only — from B's start
// plus a 10% guard to the end of the run minus the same guard — so the
// share reflects coexistence, not A's solo head start.
func RunStaggeredTrial(a, b Flow, n Network, delay sim.Time, trial int) *TrialResult {
	n = n.withDefaults()
	if delay < 0 {
		delay = 0
	}
	if delay > n.Duration {
		delay = n.Duration
	}
	rng := stats.NewRNG(n.Seed*1_000_003 + uint64(trial)*7919 + 0x5747)

	baseRTT := n.RTT
	eng := sim.New()
	bdp := netem.BDPBytes(n.BandwidthMbps*1e6, baseRTT)
	db := netem.NewDumbbell(eng, netem.DumbbellConfig{
		BottleneckBps: n.BandwidthMbps * 1e6,
		BaseRTT:       baseRTT,
		QueueBytes:    int(float64(bdp) * n.BufferBDP),
		Jitter:        baseRTT / 200,
		Rng:           rng.Fork(),
	})

	res := &TrialResult{}
	res.Traces[0] = &metrics.FlowTrace{}
	res.Traces[1] = &metrics.FlowTrace{}
	db.Bottleneck.Tap(func(ev netem.LinkEvent) {
		if ev.Kind != netem.Deliver || ev.Packet.IsAck {
			return
		}
		if i := ev.Packet.Flow - 1; i >= 0 && i <= 1 {
			res.Traces[i].AddRTT(ev.Time, ev.Sojourn+baseRTT/2)
		}
	})

	senders := [2]*transport.Sender{}
	starts := [2]sim.Time{0, delay}
	for i, fl := range [2]Flow{a, b} {
		flowID := i + 1
		ft := res.Traces[i]
		ctrl := fl.Stack.NewController(fl.CCA)
		rx := transport.NewReceiver(eng, fl.Stack.Profile, netem.HandlerFunc(func(p *netem.Packet) {
			db.ReverseLink(flowID).HandlePacket(p)
		}), flowID)
		rx.OnDeliver(func(d transport.DeliveredSample) {
			ft.AddDelivery(d.Time, d.Bytes)
		})
		i := i
		db.AttachFlow(flowID, rx, netem.HandlerFunc(func(p *netem.Packet) {
			senders[i].HandlePacket(p)
		}))
		tx := transport.NewSender(eng, fl.Stack.Profile, ctrl, db.Bottleneck, flowID)
		senders[i] = tx
		start := starts[i] + sim.Time(rng.Float64()*2*float64(baseRTT))
		eng.At(start, tx.Start)
	}

	eng.RunUntil(n.Duration)

	// Overlap window with 10% guards on each side.
	overlap := n.Duration - delay
	guard := sim.Time(float64(overlap) * 0.10)
	lo, hi := delay+guard, n.Duration-guard
	for i := range res.Traces {
		res.MeanMbps[i] = res.Traces[i].MeanThroughputMbps(lo, hi)
		res.Losses[i] = senders[i].Stats.PacketsLost
		res.Spurious[i] = senders[i].Stats.SpuriousLosses
	}
	res.Drops = db.Bottleneck.Dropped
	return res
}
