// Package transport implements the QUIC-like transport endpoints that carry
// the experiment flows: a bulk-data Sender with RFC 9002 RTT estimation,
// packet- and time-threshold loss detection, PTO probes, persistent
// congestion detection, spurious-loss (late ACK) signalling, and pacing; and
// a Receiver with a configurable ACK policy (ACK-frequency and max-ack-delay)
// that generates QUIC-style ACK ranges.
//
// The same code runs the TCP-like kernel reference profile and all QUIC
// stack profiles; the Config knobs express the per-stack differences
// (MSS, ACK frequency, timer granularity, burst quantum).
package transport

import (
	"repro/internal/sim"
)

// Config carries the transport-level (stack profile) parameters.
type Config struct {
	// MSS is the data packet payload-on-wire size in bytes. QUIC stacks
	// use 1200-byte UDP datagrams; the kernel TCP reference uses 1448.
	MSS int
	// AckEveryN acknowledges every N-th data packet (QUIC default 2,
	// matching the standard's recommendation).
	AckEveryN int
	// MaxAckDelay bounds how long the receiver may withhold an ACK
	// (QUIC default 25 ms; kernel delayed-ACK timer is 40 ms).
	MaxAckDelay sim.Time
	// TimerGranularity quantizes all sender-side timer deadlines upward,
	// modelling the host's timer resolution (kernel: 1 ms). Coarser values
	// model sloppy event loops (the xquic stack artifact).
	TimerGranularity sim.Time
	// SendQuantum is the pacing burst allowance in bytes (default 32 MSS,
	// matching QUIC stacks' initial burst / GSO batching).
	SendQuantum int
	// PacketThreshold is the reordering threshold for loss declaration
	// (RFC 9002 default 3).
	PacketThreshold int64
	// AckPacketBytes is the on-wire size of a pure ACK (default 40).
	AckPacketBytes int
	// MaxAckRanges bounds the ranges carried per ACK (default 32).
	MaxAckRanges int
	// LossMarksFlight makes every loss event mark the entire outstanding
	// flight as lost (a "flight reset", as stacks that treat a loss
	// burst as losing the whole window do). The surviving packets are
	// acknowledged shortly after and show up as spurious losses — which
	// is precisely what arms quiche's RFC 8312bis rollback against
	// genuine congestion events.
	LossMarksFlight bool
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		panic("transport: Config.MSS must be positive")
	}
	if c.AckEveryN <= 0 {
		c.AckEveryN = 2
	}
	if c.MaxAckDelay <= 0 {
		c.MaxAckDelay = 25 * sim.Millisecond
	}
	if c.TimerGranularity <= 0 {
		c.TimerGranularity = sim.Millisecond
	}
	if c.SendQuantum <= 0 {
		c.SendQuantum = 32 * c.MSS
	}
	if c.PacketThreshold <= 0 {
		c.PacketThreshold = 3
	}
	if c.AckPacketBytes <= 0 {
		c.AckPacketBytes = 40
	}
	if c.MaxAckRanges <= 0 {
		c.MaxAckRanges = 32
	}
	return c
}

// RFC 9002 loss-detection constants.
const (
	timeThresholdNum = 9
	timeThresholdDen = 8
	// persistentCongestionThreshold multiplies the PTO to decide
	// persistent congestion (RFC 9002 §7.6.1).
	persistentCongestionThreshold = 3
)

// rttEstimator implements RFC 9002 §5.
type rttEstimator struct {
	srtt    sim.Time
	rttvar  sim.Time
	minRTT  sim.Time
	latest  sim.Time
	hasData bool
}

// update processes one RTT sample with the peer-reported ack delay.
func (r *rttEstimator) update(sample, ackDelay, maxAckDelay sim.Time) {
	if sample <= 0 {
		return
	}
	r.latest = sample
	if !r.hasData {
		r.minRTT = sample
		r.srtt = sample
		r.rttvar = sample / 2
		r.hasData = true
		return
	}
	if sample < r.minRTT {
		r.minRTT = sample
	}
	adjusted := sample
	if ackDelay > maxAckDelay {
		ackDelay = maxAckDelay
	}
	if adjusted-ackDelay >= r.minRTT {
		adjusted -= ackDelay
	}
	d := r.srtt - adjusted
	if d < 0 {
		d = -d
	}
	r.rttvar = (3*r.rttvar + d) / 4
	r.srtt = (7*r.srtt + adjusted) / 8
}

// pto returns the probe timeout per RFC 9002 §6.2.1.
func (r *rttEstimator) pto(maxAckDelay, granularity sim.Time) sim.Time {
	if !r.hasData {
		return 2 * 500 * sim.Millisecond // kInitialRtt-based fallback
	}
	v := 4 * r.rttvar
	if v < granularity {
		v = granularity
	}
	return r.srtt + v + maxAckDelay
}
