package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
)

// trialOut is what a recomposed trial hands back: the quantities
// core.TrialResult carries (for the fidelity check and the PE pipeline)
// plus the counts the per-layer metrics are made of.
type trialOut struct {
	Traces   [2]*metrics.FlowTrace
	MeanMbps [2]float64
	Drops    uint64
	Events   uint64

	PendingHigh   int
	QueueHighB    int
	QueueCapB     int
	Enqueued      uint64 // packets offered to the bottleneck
	Sent          int64  // data packets sent, both flows
	Lost          int64
	Spurious      int64
	PTOs          int64
	InflightHist  []int64 // acks seen at each in-flight packet count
	InflightMax   int
	TraceBytes    int // FlowTrace memory, both flows
	QlogBytes     int64
	CSVBytes      int64
	CCName        string
	ConstructedNs int64 // topology and endpoint construction, before RunUntil
}

// recording is the optional pair of recording sinks of a traced trial,
// opened the way core's per-trial trace files are.
type recording struct {
	jsonl   *telemetry.JSONL
	packets *trace.StreamRecorder
	files   []*os.File
}

func openRecording(dir, role string, idx, trial int, cell string, seed uint64) (*recording, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	qf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s%d.qlog.jsonl", role, idx)))
	if err != nil {
		return nil, err
	}
	pf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s%d.packets.csv", role, idx)))
	if err != nil {
		qf.Close()
		return nil, err
	}
	r := &recording{jsonl: telemetry.NewJSONL(qf), packets: trace.NewStreamRecorder(pf), files: []*os.File{qf, pf}}
	r.jsonl.Header(telemetry.TraceMeta{Cell: cell, Role: role, Trial: trial, Seed: seed})
	return r, nil
}

// close flushes and closes both files and reports their sizes.
func (r *recording) close() (qlogBytes, csvBytes int64, err error) {
	err = r.jsonl.Flush()
	if perr := r.packets.Flush(); perr != nil && err == nil {
		err = perr
	}
	var sizes [2]int64
	for i, f := range r.files {
		if st, serr := f.Stat(); serr == nil {
			sizes[i] = st.Size()
		}
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return sizes[0], sizes[1], err
}

// trialSeed is core's per-trial seed: the network seed and trial index
// mixed with an FNV-1a hash of the flows' identity.
func trialSeed(n core.Network, trial int, identity ...string) uint64 {
	mix := uint64(14695981039346656037)
	for _, s := range identity {
		for i := 0; i < len(s); i++ {
			mix = (mix ^ uint64(s[i])) * 1099511628211
		}
	}
	return n.Seed*1_000_003 + uint64(trial)*7919 + mix
}

// recomposeTrial is core.runTrial rebuilt from the layers' public
// constructors, with an interposer at every boundary between layers. It
// must stay step-for-step identical to core.runTrial (clean path: no
// impairment, no supervision bounds): same seed mixing, same RNG draw
// order, same wiring. fidelity_test.go and the traced run's
// trace.fidelity_ok compare it with core.RunTrialE, so a drift in
// core.runTrial shows instead of silently skewing the layer numbers.
func recomposeTrial(a, b core.Flow, n core.Network, trial int, h *hot, rec *recording) (*trialOut, error) {
	built := time.Now()
	n = n.WithDefaults()
	rng := stats.NewRNG(trialSeed(n, trial, a.Stack.Name, string(a.CCA), b.Stack.Name, string(b.CCA)))

	baseRTT := n.RTT
	jitter := baseRTT / 200
	eng := sim.New()
	bdp := netem.BDPBytes(n.BandwidthMbps*1e6, baseRTT)
	db, err := netem.NewDumbbellE(eng, netem.DumbbellConfig{
		BottleneckBps: n.BandwidthMbps * 1e6,
		BaseRTT:       baseRTT,
		QueueBytes:    int(float64(bdp) * n.BufferBDP),
		Jitter:        jitter,
		Rng:           rng.Fork(),
		ReorderProb:   0, // the testbed setting; Wild networks are not benchmarked
		ReorderDelay:  sim.Time(float64(8*1500*8) / (n.BandwidthMbps * 1e6) * float64(sim.Second)),
	})
	if err != nil {
		return nil, fmt.Errorf("trial %d topology: %w", trial, err)
	}

	out := &trialOut{CCName: string(a.CCA), QueueCapB: db.Bottleneck.Capacity()}
	out.Traces[0], out.Traces[1] = &metrics.FlowTrace{}, &metrics.FlowTrace{}

	expectedPackets := uint64(n.BandwidthMbps*1e6*n.Duration.Seconds()/(8*1200))*2 + 1024
	faults.InstallWatchdog(eng, faults.WatchdogConfig{MaxEvents: faults.EventBudget(expectedPackets)})

	db.Bottleneck.Tap(func(ev netem.LinkEvent) {
		if ev.Kind != netem.Deliver || ev.Packet.IsAck {
			return
		}
		i := ev.Packet.Flow - 1
		if i < 0 || i > 1 {
			return
		}
		h.enter(kMetricsRecord)
		out.Traces[i].AddRTT(ev.Time, ev.Sojourn+baseRTT/2)
		h.exit()
	})
	var tracer telemetry.Tracer
	if rec != nil {
		tracer = timedTracer{inner: rec.jsonl, h: h}
		sink := rec.packets.Recorder()
		db.Bottleneck.Tap(func(ev netem.LinkEvent) {
			h.enter(kTraceCSV)
			sink(ev)
			h.exit()
		})
	}

	// sender -> bottleneck: one wrapper shared by both flows, as dataPath is.
	dataPath := timedHandler{inner: db.Bottleneck, h: h, kind: kNetemEnqueue}
	senders := [2]*transport.Sender{}
	for i, fl := range [2]core.Flow{a, b} {
		i, flowID := i, i+1
		ft := out.Traces[i]
		mss := fl.Stack.Profile.MSS

		ctrl := wrapCC(fl.Stack.NewController(fl.CCA), h)
		// receiver -> reverse link (looked up per packet: the link exists
		// only once AttachFlow has run).
		rx := transport.NewReceiverWithClock(timedClock{eng, h, kTransportRxFire}, fl.Stack.Profile,
			netem.HandlerFunc(func(p *netem.Packet) {
				h.enter(kNetemEnqueue)
				db.ReverseLink(flowID).HandlePacket(p)
				h.exit()
			}), flowID)
		rx.OnDeliver(func(d transport.DeliveredSample) {
			h.enter(kMetricsRecord)
			ft.AddDelivery(d.Time, d.Bytes)
			h.exit()
		})

		// bottleneck -> receiver, and reverse link -> sender.
		db.AttachFlow(flowID, timedHandler{inner: rx, h: h, kind: kTransportRx},
			netem.HandlerFunc(func(p *netem.Packet) {
				h.enter(kTransportTxAck)
				senders[i].HandlePacket(p)
				h.exit()
				pk := senders[i].BytesInFlight() / mss
				for pk >= len(out.InflightHist) {
					out.InflightHist = append(out.InflightHist, make([]int64, 256)...)
				}
				out.InflightHist[pk]++
				if pk > out.InflightMax {
					out.InflightMax = pk
				}
			}))
		tx := transport.NewSenderWithClock(timedClock{eng, h, kTransportTxFire}, fl.Stack.Profile, ctrl, dataPath, flowID)
		if tracer != nil {
			tx.SetTracer(tracer)
		}
		senders[i] = tx

		start := sim.Time(rng.Float64() * 2 * float64(baseRTT))
		eng.At(start, func() {
			h.enter(kTransportTxFire)
			tx.Start()
			h.exit()
		})
	}
	out.ConstructedNs = int64(time.Since(built))

	h.enter(kSimRun)
	eng.RunUntil(n.Duration)
	h.exit()
	out.Events = eng.Fired()
	out.PendingHigh = eng.PendingHighwater()

	if tracer != nil {
		now := eng.Now()
		for i := range senders {
			st := senders[i].Stats
			tracer.TransportSummary(now, i+1, telemetry.TransportStats{
				PacketsSent: uint64(st.PacketsSent), BytesSent: uint64(st.BytesSent),
				PacketsAcked: uint64(st.PacketsAcked), BytesAcked: uint64(st.BytesAcked),
				PacketsLost: uint64(st.PacketsLost), BytesLost: uint64(st.BytesLost),
				SpuriousLosses: uint64(st.SpuriousLosses), PTOCount: uint64(st.PTOCount),
				PersistentCount: uint64(st.PersistentCount), RTTSamples: uint64(st.RTTSamples),
			})
		}
		tracer.TrialSummary(now, telemetry.TrialSummary{
			Events: eng.Fired(), PendingHighwater: eng.PendingHighwater(),
			Drops: db.Bottleneck.Dropped, QueueHighwaterB: db.Bottleneck.QueueHighwater(),
		})
	}
	if werr := eng.Err(); werr != nil {
		return out, fmt.Errorf("trial %d aborted at %v: %w", trial, eng.Now(), werr)
	}

	trim := sim.Time(float64(n.Duration) * 0.10)
	for i := range out.Traces {
		out.MeanMbps[i] = out.Traces[i].MeanThroughputMbps(trim, n.Duration-trim)
		if out.MeanMbps[i] == 0 {
			return out, fmt.Errorf("trial %d flow %d: %w", trial, i, core.ErrZeroThroughput)
		}
		st := senders[i].Stats
		out.Sent += st.PacketsSent
		out.Lost += st.PacketsLost
		out.Spurious += st.SpuriousLosses
		out.PTOs += st.PTOCount
		out.TraceBytes += len(out.Traces[i].Deliveries)*int(unsafe.Sizeof(metrics.Delivery{})) +
			len(out.Traces[i].RTTs)*int(unsafe.Sizeof(metrics.RTT{}))
	}
	out.Drops = db.Bottleneck.Dropped
	out.Enqueued = db.Bottleneck.Delivered + db.Bottleneck.Dropped
	out.QueueHighB = db.Bottleneck.QueueHighwater()
	return out, nil
}
