// Package telemetry is the observability layer of the reproduction: a
// qlog-inspired structured event tracer for congestion-control internals
// (cwnd/ssthresh/pacing updates, CC state machines, RFC 9002 loss and PTO
// events, recovery epochs), a counters/gauges registry for runtime health,
// and a live sweep progress reporter.
//
// The tracer is designed around two hard requirements:
//
//   - Zero cost when disabled. Instrumented code holds a Tracer interface
//     value that is nil in the common case; every hook is guarded by a
//     single nil check and passes small structs by value, so a disabled
//     tracer adds no allocations to the transport/cc hot paths.
//
//   - Deterministic, seed-stable output. Trace events are timestamped with
//     the virtual simulation clock only (never wall time), encoded with a
//     fixed field order and shortest-round-trip float formatting, so the
//     same seed produces byte-identical trace files whether a trial runs
//     in-process or inside a crash-isolated child.
//
// Progress reporting (progress.go) is the deliberate exception: it is an
// operational instrument, not a measurement, so it may consult wall clocks
// and runtime metrics freely. Nothing it produces feeds back into results.
package telemetry

import "repro/internal/sim"

// TraceSchema identifies the JSONL trace format; the first line of every
// trace file carries it so readers can reject foreign input.
const TraceSchema = "quicbench-qlog/v1"

// Event names. The recovery:* names follow the qlog recovery event
// namespace (draft-ietf-quic-qlog-quic-events); cc:* and trial:* are
// reproduction-specific extensions.
const (
	// EvMetrics maps to qlog recovery:metrics_updated — emitted whenever
	// cwnd, ssthresh, pacing rate, or an RTT estimate changes.
	EvMetrics = "recovery:metrics_updated"
	// EvState maps to qlog recovery:congestion_state_updated — a CC state
	// machine transition (slow_start, congestion_avoidance, recovery, the
	// HyStart css phase, or a BBR state).
	EvState = "recovery:congestion_state_updated"
	// EvPacketsLost is an aggregate of qlog recovery:packet_lost — one
	// event per loss detection pass, with per-trigger counts.
	EvPacketsLost = "recovery:packets_lost"
	// EvSpurious records a loss proven spurious by a late ACK.
	EvSpurious = "recovery:spurious_loss"
	// EvPTO records a probe-timeout expiry (qlog loss_timer fired).
	EvPTO = "recovery:pto_expired"
	// EvCongestion is the congestion controller's response to loss: the
	// start of a recovery epoch (or persistent-congestion collapse).
	EvCongestion = "cc:congestion_event"
	// EvRollback records a spurious-loss undo restoring pre-backoff state.
	EvRollback = "cc:rollback"
	// EvTransport is the per-flow end-of-trial transport counter summary.
	EvTransport = "transport:summary"
	// EvTrial is the end-of-trial engine/link summary (flow 0).
	EvTrial = "trial:summary"
)

// Metrics is a snapshot of the per-flow congestion/RTT state, mirroring
// the metric set of qlog's recovery:metrics_updated.
type Metrics struct {
	CWND          int      // congestion window, bytes
	SSThresh      int      // slow-start threshold, bytes; -1 = unset/infinite
	BytesInFlight int      // bytes sent but not yet acked or lost
	PacingRate    float64  // pacing rate, bytes/sec; 0 = unpaced
	SRTT          sim.Time // smoothed RTT; 0 until the first sample
	MinRTT        sim.Time
	LatestRTT     sim.Time
}

// Congestion describes a congestion controller's reaction to loss.
type Congestion struct {
	LostBytes  int
	CWND       int // post-backoff congestion window, bytes
	SSThresh   int // post-backoff ssthresh, bytes; -1 = unset/infinite
	Persistent bool
}

// LossSample aggregates one loss-detection pass, with per-trigger counts
// (RFC 9002 packet threshold / time threshold, plus the reproduction's
// flight-reset extension).
type LossSample struct {
	LostBytes       int
	Packets         int
	PktThreshold    int // packets declared lost by the reordering threshold
	TimeThreshold   int // packets declared lost by the time threshold
	FlightReset     int // packets marked by the loss-marks-flight heuristic
	LargestLostSent sim.Time
	Persistent      bool
}

// TransportStats is the per-flow counter summary emitted at trial end; it
// mirrors transport.SenderStats without importing the transport package.
type TransportStats struct {
	PacketsSent     uint64
	BytesSent       uint64
	PacketsAcked    uint64
	BytesAcked      uint64
	PacketsLost     uint64
	BytesLost       uint64
	SpuriousLosses  uint64
	PTOCount        uint64
	PersistentCount uint64
	RTTSamples      uint64
}

// TrialSummary is the trial-wide engine and bottleneck summary.
type TrialSummary struct {
	Events           uint64 // simulation events dispatched
	PendingHighwater int    // peak event-queue occupancy
	Drops            uint64 // bottleneck droptail drops
	QueueHighwaterB  int    // peak bottleneck queue occupancy, bytes
}

// TraceMeta identifies a trace file: which sweep cell, which role within
// the conformance comparison, which trial index and mixed seed.
type TraceMeta struct {
	Cell  string // sweep cell key; "" outside sweeps
	Role  string // "test" or "ref" within a conformance cell
	Trial int
	Seed  uint64
}

// Tracer receives structured congestion/transport events for one trial.
// Implementations must be cheap: hooks run on the simulation hot path and
// hot-path callers guarantee only a nil check before invoking them.
// A nil Tracer disables tracing entirely.
type Tracer interface {
	// MetricsUpdated reports a change in the flow's congestion metrics.
	MetricsUpdated(now sim.Time, flow int, m Metrics)
	// StateChanged reports a CC state transition. from is "" for the
	// initial state announcement when the tracer is attached.
	StateChanged(now sim.Time, flow int, algo, from, to string)
	// CongestionEvent reports the start of a recovery epoch (or a
	// persistent-congestion collapse) in the congestion controller.
	CongestionEvent(now sim.Time, flow int, algo string, c Congestion)
	// PacketsLost reports one loss-detection pass that declared packets
	// lost, before the congestion controller reacts.
	PacketsLost(now sim.Time, flow int, l LossSample)
	// SpuriousLoss reports a previously-lost packet acked late.
	SpuriousLoss(now sim.Time, flow int, sentAt sim.Time)
	// Rollback reports a spurious-loss undo restoring cwnd/ssthresh.
	Rollback(now sim.Time, flow int, cwnd, ssthresh int)
	// PTOExpired reports a probe-timeout expiry; count is the current
	// consecutive-PTO backoff count.
	PTOExpired(now sim.Time, flow int, count int)
	// TransportSummary reports the flow's final transport counters.
	TransportSummary(now sim.Time, flow int, s TransportStats)
	// TrialSummary reports the trial-wide engine/link summary.
	TrialSummary(now sim.Time, s TrialSummary)
}
