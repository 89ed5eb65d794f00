package cc

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// BBR state machine states.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// String implements fmt.Stringer for debugging.
func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probe_bw"
	case bbrProbeRTT:
		return "probe_rtt"
	}
	return "unknown"
}

// BBRv1 constants mirroring the Linux kernel (tcp_bbr.c) at the paper's
// reference kernel 5.13.
const (
	bbrHighGain        = 2.885 // 2/ln(2): startup pacing and cwnd gain
	bbrDrainGain       = 1 / bbrHighGain
	bbrBWWindowRounds  = 10
	bbrMinRTTWindow    = 10 * sim.Second
	bbrProbeRTTTime    = 200 * sim.Millisecond
	bbrGainCycleLen    = 8
	bbrFullBWThresh    = 1.25
	bbrFullBWCount     = 3
	bbrProbeRTTCwndPkt = 4
)

// bbrPacingGainCycle is the PROBE_BW gain cycle.
var bbrPacingGainCycle = [bbrGainCycleLen]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBR implements BBR congestion control version 1. The xquic cwnd_gain and
// mvfst pacing-scale deviations are expressed through Config.CWNDGain and
// Config.PacingRateScale.
type BBR struct {
	cfg Config

	state bbrState

	btlBw         *maxFilter // bytes/sec, windowed over rounds
	rtProp        sim.Time   // windowed min RTT
	rtPropStamp   sim.Time
	rtPropExpired bool

	pacingRate float64 // bytes/sec
	cwnd       int

	// Startup full-pipe detection.
	fullBW      float64
	fullBWCount int
	fullPipe    bool

	// PROBE_BW gain cycling.
	cycleIndex int
	cycleStamp sim.Time

	// PROBE_RTT bookkeeping.
	probeRTTDone       sim.Time
	probeRTTRoundDone  bool
	probeRTTRoundStart int64
	priorCwnd          int

	// roundOfLastFullBWCheck throttles full-pipe checks to once per round.
	roundOfLastFullBWCheck int64

	// Round tracking (from the transport).
	roundTrips int64

	// packet-conservation style recovery handling (kernel BBR caps cwnd
	// to in-flight on entering loss recovery).
	inRecovery    bool
	recoveryStart sim.Time

	idleRestart bool
	hasRTT      bool

	tracer telemetry.Tracer
	flow   int
}

// NewBBR returns a BBRv1 controller.
func NewBBR(cfg Config) *BBR {
	cfg = cfg.withDefaults()
	b := &BBR{
		cfg:    cfg,
		state:  bbrStartup,
		btlBw:  newMaxFilter(bbrBWWindowRounds),
		cwnd:   cfg.InitialCWNDPackets * cfg.MSS,
		rtProp: 0,
	}
	return b
}

// Name implements Controller.
func (b *BBR) Name() string { return "bbr" }

// CWND implements Controller.
func (b *BBR) CWND() int { return b.cfg.clampCWND(b.cwnd) }

// PacingRate implements Controller. BBR always paces; before the first
// RTT/bandwidth sample it paces the initial window over a nominal 1 ms.
func (b *BBR) PacingRate() float64 {
	if b.pacingRate <= 0 {
		// Initial rate: initial cwnd over a conservative 10 ms guess.
		return b.cfg.PacingRateScale * float64(b.cwnd) / 0.010
	}
	return b.pacingRate
}

// InSlowStart implements Controller (BBR's analogue is STARTUP).
func (b *BBR) InSlowStart() bool { return b.state == bbrStartup }

// SetTracer implements TraceSetter.
func (b *BBR) SetTracer(t telemetry.Tracer, flow int) {
	b.tracer, b.flow = t, flow
	if t != nil {
		t.StateChanged(0, flow, "bbr", "", b.stateName())
	}
}

// stateName renders the qlog congestion state: the BBR machine state,
// with packet-conservation recovery surfaced like the loss-based CCs.
func (b *BBR) stateName() string {
	if b.inRecovery {
		return "recovery"
	}
	return b.state.String()
}

// OnPacketSent implements Controller.
func (b *BBR) OnPacketSent(now sim.Time, bytes, bytesInFlight int) {
	if b.idleRestart && bytesInFlight <= bytes {
		// Restarting from idle: nothing special beyond clearing the flag
		// (kernel also resets pacing to avoid bursts; our pacer is
		// continuous so the rate carries over).
		b.idleRestart = false
	}
}

// bdp returns gain * estimated BDP in bytes; falls back to the initial
// window before estimates exist.
func (b *BBR) bdp(gain float64) int {
	bw := b.btlBw.Get()
	if bw <= 0 || b.rtProp <= 0 {
		return b.cfg.InitialCWNDPackets * b.cfg.MSS
	}
	return int(gain * bw * b.rtProp.Seconds())
}

func (b *BBR) pacingGain() float64 {
	switch b.state {
	case bbrStartup:
		return bbrHighGain
	case bbrDrain:
		return bbrDrainGain
	case bbrProbeRTT:
		return 1
	default:
		return bbrPacingGainCycle[b.cycleIndex]
	}
}

func (b *BBR) cwndGain() float64 {
	switch b.state {
	case bbrStartup, bbrDrain:
		return bbrHighGain
	case bbrProbeRTT:
		return 1
	default:
		return b.cfg.CWNDGain
	}
}

// OnAck implements Controller: the heart of BBR's model update.
func (b *BBR) OnAck(ev AckEvent) {
	if b.tracer == nil {
		b.onAck(ev)
		return
	}
	prev := b.stateName()
	b.onAck(ev)
	if s := b.stateName(); s != prev {
		b.tracer.StateChanged(ev.Now, b.flow, "bbr", prev, s)
	}
}

func (b *BBR) onAck(ev AckEvent) {
	now := ev.Now
	b.roundTrips = ev.RoundTrips
	if b.inRecovery && ev.LargestAckedSent > b.recoveryStart {
		b.inRecovery = false
	}

	// Update the bandwidth model. App-limited samples only raise the
	// estimate, never hold it down (they are ignored unless larger).
	if ev.DeliveryRate > 0 {
		if !ev.IsAppLimited || ev.DeliveryRate > b.btlBw.Get() {
			b.btlBw.Update(ev.RoundTrips, ev.DeliveryRate)
		}
	}

	// Update min-RTT model.
	if ev.RTT > 0 {
		b.hasRTT = true
		expired := now > b.rtPropStamp+bbrMinRTTWindow
		if ev.RTT <= b.rtProp || b.rtProp == 0 || expired {
			b.rtProp = ev.RTT
			b.rtPropStamp = now
		}
		b.rtPropExpired = expired
	}

	b.checkFullPipe(ev)
	b.updateStateMachine(ev)
	b.updateControlParameters(ev)
}

// checkFullPipe implements startup full-bandwidth detection: three rounds
// without 25% growth in the bandwidth estimate.
func (b *BBR) checkFullPipe(ev AckEvent) {
	if b.fullPipe || ev.IsAppLimited {
		return
	}
	bw := b.btlBw.Get()
	if bw >= b.fullBW*bbrFullBWThresh {
		b.fullBW = bw
		b.fullBWCount = 0
		return
	}
	// Only count once per round.
	if ev.RoundTrips > b.roundOfLastFullBWCheck {
		b.fullBWCount++
		b.roundOfLastFullBWCheck = ev.RoundTrips
		if b.fullBWCount >= bbrFullBWCount {
			b.fullPipe = true
		}
	}
}

// updateStateMachine advances Startup -> Drain -> ProbeBW and handles
// ProbeRTT entry/exit.
func (b *BBR) updateStateMachine(ev AckEvent) {
	now := ev.Now
	switch b.state {
	case bbrStartup:
		if b.fullPipe {
			b.state = bbrDrain
		}
	case bbrDrain:
		if ev.BytesInFlight <= b.bdp(1.0) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		b.advanceCyclePhase(ev)
	case bbrProbeRTT:
		// Handled below.
	}

	// ProbeRTT entry: min-RTT estimate expired and we are not already
	// probing (and not still in startup, where cwnd is growing anyway).
	if b.state != bbrProbeRTT && b.rtPropExpired && !b.idleRestart && b.hasRTT {
		b.enterProbeRTT(now)
	}
	if b.state == bbrProbeRTT {
		b.handleProbeRTT(ev)
	}
	b.rtPropExpired = false
}

func (b *BBR) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	// Kernel picks a random initial phase excluding the 0.75 drain phase;
	// we start at phase 2 (unity) deterministically, then cycle.
	b.cycleIndex = 2
	b.cycleStamp = now
}

// advanceCyclePhase rotates the PROBE_BW pacing-gain cycle once per rtProp.
func (b *BBR) advanceCyclePhase(ev AckEvent) {
	now := ev.Now
	if b.rtProp <= 0 {
		return
	}
	elapsed := now - b.cycleStamp
	gain := bbrPacingGainCycle[b.cycleIndex]
	advance := false
	switch {
	case gain == 1:
		advance = elapsed > b.rtProp
	case gain > 1:
		// Stay in the probing phase until we've either filled the pipe
		// (inflight reached the probed BDP) or a min-RTT has passed and
		// there was loss; the simple kernel rule is elapsed > rtProp and
		// inflight >= target.
		advance = elapsed > b.rtProp && ev.BytesInFlight >= b.bdp(gain)
		if elapsed > 3*b.rtProp {
			advance = true // do not stick forever when inflight can't reach
		}
	default: // gain < 1: drain phase
		advance = elapsed > b.rtProp || ev.BytesInFlight <= b.bdp(1.0)
	}
	if advance {
		b.cycleIndex = (b.cycleIndex + 1) % bbrGainCycleLen
		b.cycleStamp = now
	}
}

func (b *BBR) enterProbeRTT(now sim.Time) {
	if b.state == bbrProbeBW || b.state == bbrProbeRTT || b.fullPipe {
		b.priorCwnd = b.cwnd
		b.state = bbrProbeRTT
		b.probeRTTDone = 0
	}
}

func (b *BBR) handleProbeRTT(ev AckEvent) {
	now := ev.Now
	minCwnd := bbrProbeRTTCwndPkt * b.cfg.MSS
	if b.probeRTTDone == 0 && ev.BytesInFlight <= minCwnd {
		b.probeRTTDone = now + bbrProbeRTTTime
		b.probeRTTRoundDone = false
		b.probeRTTRoundStart = ev.RoundTrips
	}
	if b.probeRTTDone != 0 {
		if ev.RoundTrips > b.probeRTTRoundStart {
			b.probeRTTRoundDone = true
		}
		if b.probeRTTRoundDone && now > b.probeRTTDone {
			b.rtPropStamp = now
			b.exitProbeRTT(now)
		}
	}
}

func (b *BBR) exitProbeRTT(now sim.Time) {
	if b.fullPipe {
		b.enterProbeBW(now)
	} else {
		b.state = bbrStartup
	}
	// Restore the window saved at ProbeRTT entry.
	if b.priorCwnd > b.cwnd {
		b.cwnd = b.priorCwnd
	}
}

// updateControlParameters sets pacing rate and cwnd from the model.
func (b *BBR) updateControlParameters(ev AckEvent) {
	bw := b.btlBw.Get()
	if bw > 0 {
		rate := b.pacingGain() * bw
		// Never pace slower than the model while starting up.
		b.pacingRate = b.cfg.PacingRateScale * rate
	}

	switch b.state {
	case bbrProbeRTT:
		b.cwnd = bbrProbeRTTCwndPkt * b.cfg.MSS
	default:
		target := b.bdp(b.cwndGain())
		if b.inRecovery {
			// Packet conservation: do not grow past in-flight + acked.
			cap := ev.BytesInFlight + ev.AckedBytes
			if target > cap {
				target = cap
			}
		}
		if b.fullPipe {
			b.cwnd = target
		} else {
			// In startup, never shrink the window.
			if target > b.cwnd {
				b.cwnd = target
			} else {
				b.cwnd += ev.AckedBytes
			}
		}
	}
	if min := b.cfg.MinCWNDPackets * b.cfg.MSS; b.cwnd < min {
		b.cwnd = min
	}
}

// OnLoss implements Controller. BBRv1 is loss-agnostic except for packet
// conservation during recovery and collapse on persistent congestion.
func (b *BBR) OnLoss(ev LossEvent) {
	if b.tracer == nil {
		b.onLoss(ev)
		return
	}
	prev, prevEpoch := b.stateName(), b.recoveryStart
	b.onLoss(ev)
	if ev.Persistent || b.recoveryStart != prevEpoch {
		b.tracer.CongestionEvent(ev.Now, b.flow, "bbr", telemetry.Congestion{
			LostBytes:  ev.LostBytes,
			CWND:       b.CWND(),
			SSThresh:   -1, // BBR has no ssthresh
			Persistent: ev.Persistent,
		})
	}
	if s := b.stateName(); s != prev {
		b.tracer.StateChanged(ev.Now, b.flow, "bbr", prev, s)
	}
}

func (b *BBR) onLoss(ev LossEvent) {
	if ev.Persistent {
		b.cwnd = b.cfg.MinCWNDPackets * b.cfg.MSS
		return
	}
	if b.inRecovery && ev.LargestLostSent <= b.recoveryStart {
		return
	}
	b.inRecovery = true
	b.recoveryStart = ev.Now
	// Cap the window at in-flight (packet conservation entry).
	if ev.BytesInFlight > 0 && b.cwnd > ev.BytesInFlight {
		inflightCap := ev.BytesInFlight
		if min := b.cfg.MinCWNDPackets * b.cfg.MSS; inflightCap < min {
			inflightCap = min
		}
		b.cwnd = inflightCap
	}
}

// OnSpuriousLoss implements Controller; BBR takes no undo action.
func (b *BBR) OnSpuriousLoss(now sim.Time, sentAt sim.Time) {}

// PacingBurst implements transport's BurstSizer: BBR paces smoothly with
// minimal bursts (Linux sizes TSO bursts to roughly a millisecond of the
// pacing rate; the transport's granularity budget provides exactly that,
// so the base quantum stays at two packets).
func (b *BBR) PacingBurst(mss int) int { return 2 * mss }
