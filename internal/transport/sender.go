package transport

import (
	"slices"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sentPacket tracks an in-flight (or recently lost) data packet.
type sentPacket struct {
	seq    int64
	bytes  int
	sentAt sim.Time
	// Delivery-rate sampler snapshot (BBR-style).
	delivered     int64
	deliveredTime sim.Time
	firstSentTime sim.Time
	appLimited    bool

	acked bool
	lost  bool
}

// SenderStats aggregates sender-side counters for tests and reports.
type SenderStats struct {
	PacketsSent     int64
	BytesSent       int64
	PacketsAcked    int64
	BytesAcked      int64
	PacketsLost     int64
	BytesLost       int64
	SpuriousLosses  int64
	PTOCount        int64
	PersistentCount int64
	RTTSamples      int64
}

// Sender is a bulk-transfer sender: it always has data to send, subject to
// the congestion controller's window and pacing rate. It consumes ACK
// packets via HandlePacket.
type Sender struct {
	clk  Clock
	cfg  Config
	ctrl cc.Controller
	out  netem.Handler
	flow int

	nextSeq       int64
	largestAcked  int64
	bytesInFlight int
	packets       map[int64]*sentPacket

	// spFree recycles sentPacket records: a bulk sender churns through one
	// per packet, and without a free list every one is a garbage-collected
	// allocation on the hot path.
	spFree []*sentPacket
	spSlab []sentPacket // bulk-allocated backing for fresh records
	// ackedScratch is reused across ACKs for the newly-acked seq list,
	// eliminating the per-ACK slice allocation in RFC 9002 processing.
	ackedScratch []int64

	rtt rttEstimator

	// Delivery-rate sampler state.
	delivered     int64
	deliveredTime sim.Time
	firstSentTime sim.Time

	// Round-trip counting: a round ends when a packet sent at or after
	// roundEndSeq is acked.
	roundTrips  int64
	roundEndSeq int64

	// Pacing.
	nextSendAt sim.Time
	sendTimer  TimerHandle

	// Loss detection.
	lossTimer TimerHandle
	ptoCount  int

	started bool
	stopped bool

	// Finite-flow support (the many-flow traffic engine): flowBytes bounds
	// the bytes this flow carries (0 = unbounded bulk transfer), completed
	// latches once BytesAcked first covers it, and onComplete is the
	// engine's recycle hook. Lost bytes are made up by fresh packets, so
	// the gate in trySend naturally reopens after a loss.
	flowBytes  int64
	completed  bool
	onComplete func()

	// Stats.
	Stats      SenderStats
	appLimited bool

	// Structured telemetry. tracer is nil when tracing is disabled — every
	// hook below is guarded by that single nil check, so the disabled path
	// costs nothing. ssth caches the optional SSThresher assertion (done
	// once in SetTracer, never on the hot path); lastMetKey dedups
	// metrics_updated events; rangeScratch is reused by the wide-ACK-range
	// walk so its determinism sort never allocates in steady state.
	tracer       telemetry.Tracer
	ssth         cc.SSThresher
	lastMetKey   telemetry.Metrics
	rangeScratch []int64
}

// NewSender constructs a sender for the given flow that emits packets into
// out (typically the bottleneck link) and is driven by ctrl. It runs on
// the discrete-event engine; use NewSenderWithClock for other timelines.
func NewSender(eng *sim.Engine, cfg Config, ctrl cc.Controller, out netem.Handler, flow int) *Sender {
	return NewSenderWithClock(SimClock(eng), cfg, ctrl, out, flow)
}

// NewSenderWithClock constructs a sender on an arbitrary clock (e.g. the
// benchmark's timed clock, which wraps the engine to attribute timer work).
func NewSenderWithClock(clk Clock, cfg Config, ctrl cc.Controller, out netem.Handler, flow int) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		clk:  clk,
		cfg:  cfg,
		ctrl: ctrl,
		out:  out,
		flow: flow,
		// Pre-sized for a typical flight plus the lost-packet retention
		// window, so steady state never pays for map growth.
		packets:      make(map[int64]*sentPacket, 256),
		largestAcked: -1,
	}
	s.sendTimer = clk.NewTimer(s.trySend)
	s.lossTimer = clk.NewTimer(s.onLossTimer)
	return s
}

// SetFlowBytes bounds the flow to the given number of application bytes
// (0 restores the default unbounded bulk transfer). Call before Start. The
// sender stops emitting once acked + in-flight bytes cover the flow and
// declares completion when BytesAcked first reaches the bound; bytes lost
// in flight reopen the send gate, so completion always covers every byte.
func (s *Sender) SetFlowBytes(bytes int64) { s.flowBytes = bytes }

// OnComplete registers fn to be invoked exactly once, after all other ACK
// processing, when a finite flow (SetFlowBytes) is fully acknowledged. The
// sender has already stopped itself when fn runs, so fn may safely recycle
// it. A second call replaces the hook (pooled senders re-register per
// flow).
func (s *Sender) OnComplete(fn func()) { s.onComplete = fn }

// ResetFlow re-initializes a recycled sender in place for a new flow,
// preserving the expensive-to-rebuild internals: the timer handles, the
// packets map's buckets, the sentPacket free list, and the ACK scratch
// slices. After ResetFlow the sender is indistinguishable from one freshly
// built by NewSenderWithClock with the same arguments.
// Rebind moves the sender onto a new clock, for pools that recycle
// senders across simulation runs. The sender must be stopped or completed
// on its old timeline; call ResetFlow afterwards to start a fresh flow.
// Sim-clock timers rebind in place; other clocks get fresh timers.
func (s *Sender) Rebind(clk Clock) {
	s.clk = clk
	if !rebindTimer(s.sendTimer, clk) {
		s.sendTimer = clk.NewTimer(s.trySend)
	}
	if !rebindTimer(s.lossTimer, clk) {
		s.lossTimer = clk.NewTimer(s.onLossTimer)
	}
}

func (s *Sender) ResetFlow(cfg Config, ctrl cc.Controller, out netem.Handler, flow int) {
	s.sendTimer.Stop()
	s.lossTimer.Stop()
	for seq, sp := range s.packets {
		s.forgetSent(seq, sp)
	}
	s.cfg = cfg.withDefaults()
	s.ctrl = ctrl
	s.out = out
	s.flow = flow
	s.nextSeq = 0
	s.largestAcked = -1
	s.bytesInFlight = 0
	s.rtt = rttEstimator{}
	s.delivered = 0
	s.deliveredTime = 0
	s.firstSentTime = 0
	s.roundTrips = 0
	s.roundEndSeq = 0
	s.nextSendAt = 0
	s.ptoCount = 0
	s.started = false
	s.stopped = false
	s.flowBytes = 0
	s.completed = false
	s.onComplete = nil
	s.Stats = SenderStats{}
	s.appLimited = false
	s.tracer = nil
	s.ssth = nil
	s.lastMetKey = telemetry.Metrics{}
}

// Controller exposes the congestion controller (for tests and tracing).
func (s *Sender) Controller() cc.Controller { return s.ctrl }

// BytesInFlight returns the outstanding unacknowledged bytes.
func (s *Sender) BytesInFlight() int { return s.bytesInFlight }

// SetTracer attaches a structured telemetry tracer (nil disables) under
// the sender's flow id, and forwards it to the congestion controller when
// it supports tracing. Call before Start so the trace opens with the
// initial controller state and metrics.
func (s *Sender) SetTracer(t telemetry.Tracer) {
	s.tracer = t
	s.ssth = nil
	if t == nil {
		return
	}
	s.ssth, _ = s.ctrl.(cc.SSThresher)
	if ts, ok := s.ctrl.(cc.TraceSetter); ok {
		ts.SetTracer(t, s.flow)
	}
}

// emitMetrics reports the current congestion metrics, deduplicating on
// everything except bytes-in-flight (which changes with every packet and
// would defeat the dedup without adding information loss events lack).
// Callers guarantee s.tracer != nil.
func (s *Sender) emitMetrics(now sim.Time) {
	m := telemetry.Metrics{
		CWND:       s.ctrl.CWND(),
		SSThresh:   -1,
		PacingRate: s.ctrl.PacingRate(),
		SRTT:       s.rtt.srtt,
		MinRTT:     s.rtt.minRTT,
		LatestRTT:  s.rtt.latest,
	}
	if s.ssth != nil {
		m.SSThresh = s.ssth.SSThresh()
	}
	if m == s.lastMetKey {
		return
	}
	s.lastMetKey = m
	m.BytesInFlight = s.bytesInFlight
	s.tracer.MetricsUpdated(now, s.flow, m)
}

// Start begins transmission.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.tracer != nil {
		s.emitMetrics(s.clk.Now())
	}
	s.trySend()
}

// Stop halts transmission (flows at experiment end).
func (s *Sender) Stop() {
	s.stopped = true
	s.sendTimer.Stop()
	s.lossTimer.Stop()
}

// quantize rounds a deadline up to the configured timer granularity,
// modelling host timer resolution.
func (s *Sender) quantize(t sim.Time) sim.Time {
	g := s.cfg.TimerGranularity
	if g <= sim.Time(1) {
		return t
	}
	if rem := t % g; rem != 0 {
		t += g - rem
	}
	return t
}

// trySend transmits as many packets as the window and pacer allow, then
// arms the send timer for the next opportunity.
func (s *Sender) trySend() {
	if s.stopped || !s.started {
		return
	}
	now := s.clk.Now()
	cwnd := s.ctrl.CWND()
	rate := s.ctrl.PacingRate()

	for s.bytesInFlight+s.cfg.MSS <= cwnd {
		if s.flowBytes > 0 && s.Stats.BytesAcked+int64(s.bytesInFlight) >= s.flowBytes {
			// Finite flow: everything is already acked or in flight. A loss
			// reduces bytesInFlight and the next ACK re-drives trySend, so
			// the gate reopens until BytesAcked covers the flow.
			return
		}
		if rate > 0 && s.nextSendAt > now {
			// Pacer gate: come back later.
			s.sendTimer.Reset(s.quantize(s.nextSendAt))
			return
		}
		s.sendPacket(now, s.cfg.MSS)
		if rate > 0 {
			// Advance the pacing clock. The burst budget is the larger of
			// the send quantum and one timer-granularity interval: a pacer
			// that can only wake every millisecond must be allowed to
			// catch up a millisecond's worth of packets, or granularity
			// caps the rate (QUIC stacks implement exactly this as their
			// pacing burst budget).
			interval := sim.Time(float64(s.cfg.MSS) / rate * float64(sim.Second))
			budget := s.quantumTime(rate)
			if s.cfg.TimerGranularity > budget {
				budget = s.cfg.TimerGranularity
			}
			if s.nextSendAt < now-budget {
				s.nextSendAt = now - budget
			}
			s.nextSendAt += interval
		}
		cwnd = s.ctrl.CWND()
		rate = s.ctrl.PacingRate()
	}
	// Window-limited: we will be re-driven by the next ACK. Nothing to arm.
}

// BurstSizer lets a congestion controller override the stack's pacing
// burst quantum (BBR paces smoothly; window-based CCAs use GSO-sized
// bursts).
type BurstSizer interface {
	PacingBurst(mss int) int
}

// quantumTime is the serialization time of the burst quantum at rate.
func (s *Sender) quantumTime(rate float64) sim.Time {
	quantum := s.cfg.SendQuantum
	if bs, ok := s.ctrl.(BurstSizer); ok {
		quantum = bs.PacingBurst(s.cfg.MSS)
	}
	return sim.Time(float64(quantum) / rate * float64(sim.Second))
}

// allocSent takes a sentPacket record from the free list, falling back to
// the allocator when the list is empty.
func (s *Sender) allocSent() *sentPacket {
	if n := len(s.spFree); n > 0 {
		sp := s.spFree[n-1]
		s.spFree = s.spFree[:n-1]
		return sp
	}
	// Slab-carve fresh records: one heap allocation per 64 instead of one
	// each while the in-flight window grows to its peak.
	if len(s.spSlab) == 0 {
		s.spSlab = make([]sentPacket, 64)
	}
	sp := &s.spSlab[0]
	s.spSlab = s.spSlab[1:]
	return sp
}

// forgetSent removes seq from the tracked set and recycles its record.
// Callers must not touch sp afterwards.
func (s *Sender) forgetSent(seq int64, sp *sentPacket) {
	delete(s.packets, seq)
	*sp = sentPacket{}
	s.spFree = append(s.spFree, sp)
}

// sendPacket emits one data packet and updates tracking state.
func (s *Sender) sendPacket(now sim.Time, bytes int) {
	seq := s.nextSeq
	s.nextSeq++
	if s.firstSentTime == 0 {
		s.firstSentTime = now
		s.deliveredTime = now
	}
	sp := s.allocSent()
	*sp = sentPacket{
		seq:           seq,
		bytes:         bytes,
		sentAt:        now,
		delivered:     s.delivered,
		deliveredTime: s.deliveredTime,
		firstSentTime: s.firstSentTime,
		appLimited:    s.appLimited,
	}
	s.packets[seq] = sp
	s.bytesInFlight += bytes
	s.Stats.PacketsSent++
	s.Stats.BytesSent += int64(bytes)
	s.ctrl.OnPacketSent(now, bytes, s.bytesInFlight)
	pkt := netem.GetPacket()
	pkt.Flow = s.flow
	pkt.Seq = seq
	pkt.Size = bytes
	pkt.SentAt = now
	s.out.HandlePacket(pkt)
	s.armLossTimer()
}

// HandlePacket implements netem.Handler for the reverse path: it consumes
// ACK packets.
func (s *Sender) HandlePacket(pkt *netem.Packet) {
	// The sender is the terminal consumer on the reverse path, so any
	// pool-managed packet is recycled on every return below.
	defer netem.ReleasePacket(pkt)
	if !pkt.IsAck || s.stopped || pkt.Corrupted {
		return
	}
	now := s.clk.Now()

	var (
		newlyAckedBytes int
		largestNewly    *sentPacket
		sawNew          bool
	)
	ackedSeqs := s.ackedScratch[:0]
	process := func(seq int64, sp *sentPacket) {
		if sp.acked {
			return
		}
		if sp.lost {
			// Late ACK of a declared-lost packet: spurious loss.
			s.Stats.SpuriousLosses++
			s.accountDelivered(now, sp)
			spuriousSentAt := sp.sentAt
			s.forgetSent(seq, sp)
			if s.tracer != nil {
				s.tracer.SpuriousLoss(now, s.flow, spuriousSentAt)
			}
			s.ctrl.OnSpuriousLoss(now, spuriousSentAt)
			return
		}
		sp.acked = true
		sawNew = true
		newlyAckedBytes += sp.bytes
		s.bytesInFlight -= sp.bytes
		s.Stats.PacketsAcked++
		s.Stats.BytesAcked += int64(sp.bytes)
		s.accountDelivered(now, sp)
		ackedSeqs = append(ackedSeqs, seq)
		if largestNewly == nil || sp.seq > largestNewly.seq {
			largestNewly = sp
		}
	}
	// Walk the ACK ranges. Ranges can span the entire received history
	// (the receiver merges intervals), so when a range is wider than the
	// set of packets we still track, iterate the tracked set instead of
	// the range to keep ACK processing O(outstanding), not O(lifetime).
	for _, rg := range pkt.Ranges {
		span := rg.Largest - rg.Smallest + 1
		if span > int64(len(s.packets)) {
			// Go map iteration order is random: collect the matching seqs
			// and sort so per-packet processing (and any telemetry it
			// emits) happens in the same descending order as the
			// narrow-range walk below, keeping traces seed-stable.
			match := s.rangeScratch[:0]
			for seq := range s.packets {
				if seq >= rg.Smallest && seq <= rg.Largest {
					match = append(match, seq)
				}
			}
			slices.Sort(match)
			for i := len(match) - 1; i >= 0; i-- {
				if sp, ok := s.packets[match[i]]; ok {
					process(match[i], sp)
				}
			}
			s.rangeScratch = match[:0]
			continue
		}
		for seq := rg.Largest; seq >= rg.Smallest; seq-- {
			if sp, ok := s.packets[seq]; ok {
				process(seq, sp)
			}
		}
	}
	if pkt.LargestAcked > s.largestAcked {
		s.largestAcked = pkt.LargestAcked
	}
	if !sawNew {
		// Pure duplicate or stale ACK: still run loss detection in case the
		// higher largestAcked exposes losses.
		s.detectLosses(now)
		if s.tracer != nil {
			s.emitMetrics(now)
		}
		s.trySend()
		return
	}

	// RTT sample from the largest newly acked packet (RFC 9002 §5.1).
	if largestNewly != nil && largestNewly.seq == pkt.LargestAcked {
		sample := now - largestNewly.sentAt
		s.rtt.update(sample, pkt.AckDelay, s.cfg.MaxAckDelay)
		s.Stats.RTTSamples++
	}

	// Round-trip accounting.
	if largestNewly != nil && largestNewly.seq >= s.roundEndSeq {
		s.roundTrips++
		s.roundEndSeq = s.nextSeq
	}

	// Delivery-rate sample (BBR-style) from the largest newly acked packet.
	var deliveryRate float64
	var sampleAppLimited bool
	if largestNewly != nil {
		deliveredDelta := s.delivered - largestNewly.delivered
		ackElapsed := s.deliveredTime - largestNewly.deliveredTime
		sendElapsed := largestNewly.sentAt - largestNewly.firstSentTime
		interval := ackElapsed
		if sendElapsed > interval {
			interval = sendElapsed
		}
		if interval > 0 {
			deliveryRate = float64(deliveredDelta) / interval.Seconds()
		}
		sampleAppLimited = largestNewly.appLimited
	}

	s.ptoCount = 0

	ev := cc.AckEvent{
		Now:              now,
		AckedBytes:       newlyAckedBytes,
		LargestAckedSent: largestNewly.sentAt,
		RTT:              s.rtt.latest,
		SRTT:             s.rtt.srtt,
		MinRTT:           s.rtt.minRTT,
		BytesInFlight:    s.bytesInFlight,
		DeliveryRate:     deliveryRate,
		IsAppLimited:     sampleAppLimited,
		RoundTrips:       s.roundTrips,
	}
	s.ctrl.OnAck(ev)

	// Acked packets can now be forgotten and their records recycled.
	for _, seq := range ackedSeqs {
		if sp, ok := s.packets[seq]; ok {
			s.forgetSent(seq, sp)
		}
	}
	s.ackedScratch = ackedSeqs[:0]

	s.detectLosses(now)
	if s.tracer != nil {
		s.emitMetrics(now)
	}
	s.trySend()

	// Finite-flow completion, checked last so the hook can recycle the
	// sender: nothing below this point touches sender state.
	if s.flowBytes > 0 && !s.completed && s.Stats.BytesAcked >= s.flowBytes {
		s.completed = true
		s.Stop()
		if fn := s.onComplete; fn != nil {
			fn()
		}
	}
}

// accountDelivered updates the delivery-rate sampler totals. Following
// tcp_rate.c, the send-side sample window slides forward to the acked
// packet's transmit time so future samples measure recent behaviour, not
// the connection's lifetime average.
func (s *Sender) accountDelivered(now sim.Time, sp *sentPacket) {
	s.delivered += int64(sp.bytes)
	s.deliveredTime = now
	if sp.sentAt > s.firstSentTime {
		s.firstSentTime = sp.sentAt
	}
}

// detectLosses applies RFC 9002 §6.1 packet- and time-threshold loss
// detection and informs the controller. It also arms the loss timer for
// packets that are only "young" relative to the time threshold.
func (s *Sender) detectLosses(now sim.Time) {
	if s.largestAcked < 0 {
		return
	}
	threshold := s.lossTimeThreshold()
	var (
		lostBytes       int
		largestLostSent sim.Time
		oldestLostSent  sim.Time = -1
		newestLostSent  sim.Time
		earliestLossAt  sim.Time = -1
		largestLostSeq  int64    = -1
		// Per-trigger counts for telemetry; only maintained when tracing.
		nPkt, nTime, nFlight int
	)
	for seq, sp := range s.packets {
		if sp.acked || sp.lost {
			continue
		}
		if seq > s.largestAcked {
			continue
		}
		packetLost := s.largestAcked-seq >= s.cfg.PacketThreshold
		lossTime := sp.sentAt + threshold
		timeLost := lossTime <= now
		if packetLost || timeLost {
			sp.lost = true
			lostBytes += sp.bytes
			s.bytesInFlight -= sp.bytes
			s.Stats.PacketsLost++
			s.Stats.BytesLost += int64(sp.bytes)
			if s.tracer != nil {
				if packetLost {
					nPkt++
				} else {
					nTime++
				}
			}
			if seq > largestLostSeq {
				largestLostSeq = seq
			}
			if sp.sentAt > largestLostSent {
				largestLostSent = sp.sentAt
			}
			if oldestLostSent < 0 || sp.sentAt < oldestLostSent {
				oldestLostSent = sp.sentAt
			}
			if sp.sentAt > newestLostSent {
				newestLostSent = sp.sentAt
			}
			continue
		}
		if earliestLossAt < 0 || lossTime < earliestLossAt {
			earliestLossAt = lossTime
		}
	}
	if lostBytes > 0 && s.cfg.LossMarksFlight {
		// Flight extension: the detector assumes the drop burst extends
		// into the unacknowledged tail and marks everything sent within
		// half an SRTT after the newest lost packet. The survivors among
		// them are acked shortly after and reported as spurious.
		horizon := newestLostSent + s.rtt.srtt/2
		for _, sp := range s.packets {
			if sp.acked || sp.lost || sp.sentAt > horizon {
				continue
			}
			sp.lost = true
			lostBytes += sp.bytes
			s.bytesInFlight -= sp.bytes
			s.Stats.PacketsLost++
			s.Stats.BytesLost += int64(sp.bytes)
			nFlight++
			if sp.sentAt > largestLostSent {
				largestLostSent = sp.sentAt
			}
			if sp.sentAt > newestLostSent {
				newestLostSent = sp.sentAt
			}
		}
		earliestLossAt = -1
	}
	if lostBytes > 0 {
		persistent := false
		if oldestLostSent >= 0 {
			pto := s.rtt.pto(s.cfg.MaxAckDelay, s.cfg.TimerGranularity)
			if newestLostSent-oldestLostSent > persistentCongestionThreshold*pto {
				persistent = true
				s.Stats.PersistentCount++
			}
		}
		if s.tracer != nil {
			s.tracer.PacketsLost(now, s.flow, telemetry.LossSample{
				LostBytes:       lostBytes,
				Packets:         nPkt + nTime + nFlight,
				PktThreshold:    nPkt,
				TimeThreshold:   nTime,
				FlightReset:     nFlight,
				LargestLostSent: largestLostSent,
				Persistent:      persistent,
			})
		}
		s.ctrl.OnLoss(cc.LossEvent{
			Now:             now,
			LostBytes:       lostBytes,
			LargestLostSent: largestLostSent,
			BytesInFlight:   s.bytesInFlight,
			Persistent:      persistent,
		})
	}
	// Keep lost packets around for spurious-loss detection, but bound the
	// memory: drop lost entries older than 4 PTOs.
	horizon := now - 4*s.rtt.pto(s.cfg.MaxAckDelay, s.cfg.TimerGranularity)
	for seq, sp := range s.packets {
		if sp.lost && sp.sentAt < horizon {
			s.forgetSent(seq, sp)
		}
	}
	if earliestLossAt >= 0 {
		s.lossTimer.Reset(s.quantize(earliestLossAt))
	} else {
		s.armLossTimer()
	}
}

// lossTimeThreshold returns kTimeThreshold * max(srtt, latest_rtt).
func (s *Sender) lossTimeThreshold() sim.Time {
	base := s.rtt.srtt
	if s.rtt.latest > base {
		base = s.rtt.latest
	}
	if base == 0 {
		base = 100 * sim.Millisecond
	}
	t := base * timeThresholdNum / timeThresholdDen
	if t < s.cfg.TimerGranularity {
		t = s.cfg.TimerGranularity
	}
	return t
}

// armLossTimer arms the PTO timer when packets are outstanding.
func (s *Sender) armLossTimer() {
	if s.stopped {
		return
	}
	hasOutstanding := false
	for _, sp := range s.packets {
		if !sp.acked && !sp.lost {
			hasOutstanding = true
			break
		}
	}
	if !hasOutstanding {
		s.lossTimer.Stop()
		return
	}
	pto := s.rtt.pto(s.cfg.MaxAckDelay, s.cfg.TimerGranularity)
	// Exponential backoff, capped so repeated timeouts on a dead path
	// cannot overflow or push the deadline past any realistic run length.
	backoff := s.ptoCount
	if backoff > 6 {
		backoff = 6
	}
	pto <<= uint(backoff)
	s.lossTimer.Reset(s.quantize(s.clk.Now() + pto))
}

// onLossTimer fires on timeout: first run time-threshold loss detection;
// if nothing was declared, treat it as a PTO and send a probe.
func (s *Sender) onLossTimer() {
	if s.stopped {
		return
	}
	now := s.clk.Now()
	before := s.Stats.PacketsLost
	s.detectLosses(now)
	if s.Stats.PacketsLost != before {
		if s.tracer != nil {
			s.emitMetrics(now)
		}
		s.trySend()
		return
	}
	// PTO: probe with one packet regardless of cwnd (RFC 9002 §6.2.4).
	s.ptoCount++
	s.Stats.PTOCount++
	if s.tracer != nil {
		s.tracer.PTOExpired(now, s.flow, s.ptoCount)
	}
	s.sendPacket(now, s.cfg.MSS)
}
