package main

import "repro/internal/traffic"

// layerAcc accumulates one traced repeat: per-packet span aggregates summed
// over its trials, the counts taken at the same boundaries, and the coarse
// span totals. numbers turns it into that repeat's per-layer metrics.
type layerAcc struct {
	cells, trials int
	kinds         [nKinds]aggregate
	ackByCCA      map[string]aggregate // cc.on_ack split by algorithm
	ccCalls       int64

	events      uint64
	pendingHigh int
	enqueued    uint64 // packets offered to the bottleneck
	drops       uint64
	queueFrac   float64 // max over trials of queue highwater / capacity
	sent        int64
	lost        int64
	spurious    int64
	ptos        int64
	inflight    []int64
	inflightMax int
	traceBytes  int

	cellNs, trialNs, pointsNs int64
	hotSelfNs                 int64 // sum of per-packet self times, all trials
	builtNs                   int64 // trial construction before RunUntil
	recFilesNs                int64 // opening and flushing the recording files
	journalNs, journalAppends int64
	journalBytes              int64

	peEvalNs, peEvals     int64
	peBuildNs, peBuilds   int64
	peOldNs, peOlds       int64
	peConfNs, peConfs     int64
	peConfTNs, peConfTs   int64
	pePoints, peEnvelopes int64
	qlogBytes, csvBytes   int64
	poolGets, poolNews    int64 // netem packet pool, deltas over the repeat
	mallocs               uint64

	// Many-flow counts.
	mfTrials                    int
	mfFlows, mfCompleted, mfRej int64
	mfPeak, mfPoolSenders       int
	mfStale                     int64
}

func (a *layerAcc) addHot(h *hot) {
	for k, agg := range h.byKind() {
		a.kinds[k].Count += agg.Count
		a.kinds[k].TotalNs += agg.TotalNs
		a.kinds[k].SelfNs += agg.SelfNs
		a.hotSelfNs += agg.SelfNs
	}
	a.ccCalls += h.ccCalls
}

func (a *layerAcc) addTrial(out *trialOut, h *hot) {
	a.trials++
	a.addHot(h)
	if a.ackByCCA == nil {
		a.ackByCCA = map[string]aggregate{}
	}
	ack := h.byKind()[kCCOnAck]
	cur := a.ackByCCA[out.CCName]
	cur.Count += ack.Count
	cur.SelfNs += ack.SelfNs
	a.ackByCCA[out.CCName] = cur

	a.events += out.Events
	if out.PendingHigh > a.pendingHigh {
		a.pendingHigh = out.PendingHigh
	}
	a.enqueued += out.Enqueued
	a.drops += out.Drops
	if out.QueueCapB > 0 {
		if f := float64(out.QueueHighB) / float64(out.QueueCapB); f > a.queueFrac {
			a.queueFrac = f
		}
	}
	a.sent += out.Sent
	a.lost += out.Lost
	a.spurious += out.Spurious
	a.ptos += out.PTOs
	for pk, n := range out.InflightHist {
		for pk >= len(a.inflight) {
			a.inflight = append(a.inflight, make([]int64, 256)...)
		}
		a.inflight[pk] += n
	}
	if out.InflightMax > a.inflightMax {
		a.inflightMax = out.InflightMax
	}
	a.traceBytes += out.TraceBytes
	a.builtNs += out.ConstructedNs
}

func (a *layerAcc) addManyFlow(res *traffic.Result, ps poolSizes, h *hot) {
	a.trials++
	a.mfTrials++
	a.addHot(h)
	if a.ackByCCA == nil {
		a.ackByCCA = map[string]aggregate{}
	}
	// The default population runs CUBIC in every cohort.
	ack := h.byKind()[kCCOnAck]
	cur := a.ackByCCA["cubic"]
	cur.Count += ack.Count
	cur.SelfNs += ack.SelfNs
	a.ackByCCA["cubic"] = cur

	a.events += res.Events
	a.drops += res.Drops
	a.enqueued += res.Stats.InjectedData
	a.mfFlows += res.Stats.FlowsStarted
	a.mfCompleted += res.Stats.Completed
	a.mfRej += res.Stats.Rejected
	if res.Stats.PeakActive > a.mfPeak {
		a.mfPeak = res.Stats.PeakActive
	}
	if ps.Senders > a.mfPoolSenders {
		a.mfPoolSenders = ps.Senders
	}
	a.mfStale += res.Stats.StaleDeliveries
	for _, c := range res.Cohorts {
		a.lost += c.Lost
		a.spurious += c.Spurious
	}
}

// percentile returns the smallest in-flight count at or below which frac
// of the ACKs were seen.
func percentile(hist []int64, frac float64) float64 {
	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	var run int64
	for pk, n := range hist {
		run += n
		if float64(run) >= frac*float64(total) {
			return float64(pk)
		}
	}
	return float64(len(hist) - 1)
}

// ratio is a/b, 0 when the layer did no such work in this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// numbers computes one repeat's span-derived per-layer metrics. A metric
// whose layer did no work in this workload reads 0.
func (a *layerAcc) numbers() map[string]float64 {
	self := func(kinds ...spanKind) float64 {
		var s int64
		for _, kind := range kinds {
			s += a.kinds[kind].SelfNs
		}
		return float64(s)
	}
	count := func(kind spanKind) float64 { return float64(a.kinds[kind].Count) }
	cells, trials := float64(a.cells), float64(a.trials)
	events := float64(a.events)
	cellNs := float64(a.cellNs)

	m := map[string]float64{}
	twoFlow := a.mfTrials == 0

	// sim: the root span's self time is what remains of Engine.RunUntil
	// after every wrapped call: the event loop plus netem's own link
	// events (serialization done, delivery), which no boundary separates.
	m["sim.events_per_cell"] = ratio(events, cells)
	m["sim.pending_highwater"] = float64(a.pendingHigh)
	if twoFlow {
		m["sim.self_ns_per_event"] = ratio(self(kSimRun), events)
	} else {
		m["traffic.ns_per_event"] = ratio(self(kSimRun), events)
		m["traffic.events_per_cell"] = ratio(events, cells)
		m["traffic.flows_started"] = ratio(float64(a.mfFlows), trials)
		m["traffic.flows_completed"] = ratio(float64(a.mfCompleted), trials)
		m["traffic.rejected_frac"] = ratio(float64(a.mfRej), float64(a.mfRej+a.mfFlows))
		m["traffic.peak_active"] = float64(a.mfPeak)
		m["traffic.pool_senders"] = float64(a.mfPoolSenders)
		m["traffic.allocs_per_flow"] = ratio(float64(a.mallocs), float64(a.mfFlows))
		m["traffic.stale_deliveries"] = float64(a.mfStale)
	}

	m["netem.enqueue_ns_per_pkt"] = ratio(self(kNetemEnqueue), count(kNetemEnqueue))
	m["netem.drop_frac"] = ratio(float64(a.drops), float64(a.enqueued))
	m["netem.queue_highwater_frac"] = a.queueFrac
	m["netem.pool_miss_frac"] = ratio(float64(a.poolNews), float64(a.poolGets))

	m["transport.tx_ack_ns_per_ack"] = ratio(self(kTransportTxAck), count(kTransportTxAck))
	m["transport.tx_timer_ns_per_fire"] = ratio(self(kTransportTxFire), count(kTransportTxFire))
	m["transport.rx_ns_per_pkt"] = ratio(self(kTransportRx, kTransportRxFire), count(kTransportRx))
	m["transport.inflight_pkts_p50"] = percentile(a.inflight, 0.5)
	m["transport.inflight_pkts_max"] = float64(a.inflightMax)
	m["transport.loss_frac"] = ratio(float64(a.lost), float64(a.sent))
	m["transport.spurious_frac"] = ratio(float64(a.spurious), float64(a.lost))
	m["transport.pto_count"] = ratio(float64(a.ptos), trials)
	m["transport.share"] = ratio(self(kTransportTxAck, kTransportTxFire, kTransportRx, kTransportRxFire), cellNs)

	for _, algo := range []string{"reno", "cubic", "bbr"} {
		ack := a.ackByCCA[algo]
		m["cc."+algo+".on_ack_ns"] = ratio(float64(ack.SelfNs), float64(ack.Count))
	}
	m["cc.on_loss_ns"] = ratio(self(kCCOnLoss), count(kCCOnLoss))
	m["cc.on_sent_ns"] = ratio(self(kCCOnSent), count(kCCOnSent))
	m["cc.calls_per_pkt"] = ratio(float64(a.ccCalls), count(kCCOnSent))
	m["cc.share"] = ratio(self(kCCOnAck, kCCOnLoss, kCCOnSent), cellNs)

	m["metrics.record_ns_per_sample"] = ratio(self(kMetricsRecord), count(kMetricsRecord))
	if twoFlow {
		m["metrics.points_us_per_trial"] = ratio(float64(a.pointsNs)/1e3, trials)
		m["metrics.trace_mb_per_trial"] = ratio(float64(a.traceBytes)/1e6, trials)
	}

	m["pe.build_us"] = ratio(float64(a.peBuildNs)/1e3, float64(a.peBuilds))
	m["pe.conformance_us"] = ratio(float64(a.peConfNs)/1e3, float64(a.peConfs))
	m["pe.conformance_t_us"] = ratio(float64(a.peConfTNs)/1e3, float64(a.peConfTs))
	m["pe.evaluate_us"] = ratio(float64(a.peEvalNs)/1e3, float64(a.peEvals))
	m["pe.points_per_envelope"] = ratio(float64(a.pePoints), float64(a.peEnvelopes))
	m["pe.share"] = ratio(float64(a.peEvalNs), cellNs)

	// The cell's self time: what core adds around trials, points, PE and
	// the journal append.
	m["core.cell_self_us"] = ratio((cellNs-float64(a.trialNs+a.peEvalNs+a.journalNs))/1e3, cells)
	m["runner.journal_append_us"] = ratio(float64(a.journalNs)/1e3, float64(a.journalAppends))
	m["runner.journal_bytes_per_cell"] = ratio(float64(a.journalBytes), cells)

	m["telemetry.jsonl_ns_per_event"] = ratio(self(kTelemetry), count(kTelemetry))
	m["telemetry.events_per_trial"] = ratio(count(kTelemetry), trials)
	m["telemetry.qlog_bytes_per_trial"] = ratio(float64(a.qlogBytes), trials)
	m["trace.csv_ns_per_pkt"] = ratio(self(kTraceCSV), count(kTraceCSV))
	m["trace.csv_bytes_per_trial"] = ratio(float64(a.csvBytes), trials)
	return m
}

// selfCoverage is the sum of per-packet self times over the traced trial
// time: how much of the trials the layer spans account for. The remainder
// is trial construction, points extraction and the recording files' open
// and flush, which are coarse spans.
func (a *layerAcc) selfCoverage() float64 {
	return ratio(float64(a.hotSelfNs+a.builtNs+a.pointsNs+a.recFilesNs), float64(a.trialNs))
}
