package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/sim"
)

// JSONL is the concrete Tracer: it streams events as one JSON object per
// line. Encoding is hand-rolled (fixed field order, strconv.Append* into a
// reusable buffer, shortest-round-trip floats) so that output is
// deterministic across runs, processes, and Go map iteration order — the
// property the golden bit-identity tests pin. Timestamps are virtual
// sim.Time seconds; wall clocks never appear in a trace file.
//
// Errors are sticky: the first write failure is retained and subsequent
// events become no-ops. Callers check Err (or the Flush result) once at
// the end of the trial instead of after every hook.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL wraps w in a buffered deterministic trace writer. Call Flush
// before closing the underlying file.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 32<<10), buf: make([]byte, 0, 256)}
}

// Header writes the schema/identity line; it must be the first line of a
// trace file.
func (j *JSONL) Header(meta TraceMeta) {
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"schema":`...)
	b = appendString(b, TraceSchema)
	if meta.Cell != "" {
		b = append(b, `,"cell":`...)
		b = appendString(b, meta.Cell)
	}
	if meta.Role != "" {
		b = append(b, `,"role":`...)
		b = appendString(b, meta.Role)
	}
	b = append(b, `,"trial":`...)
	b = strconv.AppendInt(b, int64(meta.Trial), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, meta.Seed, 10)
	b = append(b, '}', '\n')
	j.line(b)
}

// Flush drains the buffer to the underlying writer and reports the sticky
// error, if any.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

func (j *JSONL) line(b []byte) {
	j.buf = b[:0]
	if _, err := j.w.Write(b); err != nil && j.err == nil {
		j.err = err
	}
}

// begin starts an event line through the common prefix up to the opening
// brace of "data".
func (j *JSONL) begin(now sim.Time, flow int, name string) []byte {
	b := j.buf[:0]
	b = append(b, `{"t":`...)
	b = appendSeconds(b, now)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, int64(flow), 10)
	b = append(b, `,"name":"`...)
	b = append(b, name...) // event names are compile-time constants
	b = append(b, `","data":{`...)
	return b
}

func endEvent(b []byte) []byte { return append(b, '}', '}', '\n') }

// MetricsUpdated implements Tracer.
func (j *JSONL) MetricsUpdated(now sim.Time, flow int, m Metrics) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvMetrics)
	b = append(b, `"cwnd":`...)
	b = strconv.AppendInt(b, int64(m.CWND), 10)
	if m.SSThresh >= 0 {
		b = append(b, `,"ssthresh":`...)
		b = strconv.AppendInt(b, int64(m.SSThresh), 10)
	}
	b = append(b, `,"bytes_in_flight":`...)
	b = strconv.AppendInt(b, int64(m.BytesInFlight), 10)
	b = append(b, `,"pacing_rate":`...)
	b = strconv.AppendFloat(b, m.PacingRate, 'g', -1, 64)
	b = append(b, `,"srtt_ms":`...)
	b = appendMillis(b, m.SRTT)
	b = append(b, `,"min_rtt_ms":`...)
	b = appendMillis(b, m.MinRTT)
	b = append(b, `,"latest_rtt_ms":`...)
	b = appendMillis(b, m.LatestRTT)
	j.line(endEvent(b))
}

// StateChanged implements Tracer.
func (j *JSONL) StateChanged(now sim.Time, flow int, algo, from, to string) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvState)
	b = append(b, `"algo":`...)
	b = appendString(b, algo)
	if from != "" {
		b = append(b, `,"from":`...)
		b = appendString(b, from)
	}
	b = append(b, `,"to":`...)
	b = appendString(b, to)
	j.line(endEvent(b))
}

// CongestionEvent implements Tracer.
func (j *JSONL) CongestionEvent(now sim.Time, flow int, algo string, c Congestion) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvCongestion)
	b = append(b, `"algo":`...)
	b = appendString(b, algo)
	b = append(b, `,"lost_bytes":`...)
	b = strconv.AppendInt(b, int64(c.LostBytes), 10)
	b = append(b, `,"cwnd":`...)
	b = strconv.AppendInt(b, int64(c.CWND), 10)
	if c.SSThresh >= 0 {
		b = append(b, `,"ssthresh":`...)
		b = strconv.AppendInt(b, int64(c.SSThresh), 10)
	}
	b = append(b, `,"persistent":`...)
	b = strconv.AppendBool(b, c.Persistent)
	j.line(endEvent(b))
}

// PacketsLost implements Tracer.
func (j *JSONL) PacketsLost(now sim.Time, flow int, l LossSample) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvPacketsLost)
	b = append(b, `"lost_bytes":`...)
	b = strconv.AppendInt(b, int64(l.LostBytes), 10)
	b = append(b, `,"packets":`...)
	b = strconv.AppendInt(b, int64(l.Packets), 10)
	b = append(b, `,"pkt_threshold":`...)
	b = strconv.AppendInt(b, int64(l.PktThreshold), 10)
	b = append(b, `,"time_threshold":`...)
	b = strconv.AppendInt(b, int64(l.TimeThreshold), 10)
	b = append(b, `,"flight_reset":`...)
	b = strconv.AppendInt(b, int64(l.FlightReset), 10)
	b = append(b, `,"largest_lost_sent":`...)
	b = appendSeconds(b, l.LargestLostSent)
	b = append(b, `,"persistent":`...)
	b = strconv.AppendBool(b, l.Persistent)
	j.line(endEvent(b))
}

// SpuriousLoss implements Tracer.
func (j *JSONL) SpuriousLoss(now sim.Time, flow int, sentAt sim.Time) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvSpurious)
	b = append(b, `"sent_at":`...)
	b = appendSeconds(b, sentAt)
	j.line(endEvent(b))
}

// Rollback implements Tracer.
func (j *JSONL) Rollback(now sim.Time, flow int, cwnd, ssthresh int) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvRollback)
	b = append(b, `"cwnd":`...)
	b = strconv.AppendInt(b, int64(cwnd), 10)
	if ssthresh >= 0 {
		b = append(b, `,"ssthresh":`...)
		b = strconv.AppendInt(b, int64(ssthresh), 10)
	}
	j.line(endEvent(b))
}

// PTOExpired implements Tracer.
func (j *JSONL) PTOExpired(now sim.Time, flow int, count int) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvPTO)
	b = append(b, `"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	j.line(endEvent(b))
}

// TransportSummary implements Tracer.
func (j *JSONL) TransportSummary(now sim.Time, flow int, s TransportStats) {
	if j.err != nil {
		return
	}
	b := j.begin(now, flow, EvTransport)
	b = append(b, `"pkts_sent":`...)
	b = strconv.AppendUint(b, s.PacketsSent, 10)
	b = append(b, `,"bytes_sent":`...)
	b = strconv.AppendUint(b, s.BytesSent, 10)
	b = append(b, `,"pkts_acked":`...)
	b = strconv.AppendUint(b, s.PacketsAcked, 10)
	b = append(b, `,"bytes_acked":`...)
	b = strconv.AppendUint(b, s.BytesAcked, 10)
	b = append(b, `,"pkts_lost":`...)
	b = strconv.AppendUint(b, s.PacketsLost, 10)
	b = append(b, `,"bytes_lost":`...)
	b = strconv.AppendUint(b, s.BytesLost, 10)
	b = append(b, `,"spurious":`...)
	b = strconv.AppendUint(b, s.SpuriousLosses, 10)
	b = append(b, `,"pto":`...)
	b = strconv.AppendUint(b, s.PTOCount, 10)
	b = append(b, `,"persistent":`...)
	b = strconv.AppendUint(b, s.PersistentCount, 10)
	b = append(b, `,"rtt_samples":`...)
	b = strconv.AppendUint(b, s.RTTSamples, 10)
	j.line(endEvent(b))
}

// TrialSummary implements Tracer. It is reported as flow 0: the summary
// spans all flows in the trial.
func (j *JSONL) TrialSummary(now sim.Time, s TrialSummary) {
	if j.err != nil {
		return
	}
	b := j.begin(now, 0, EvTrial)
	b = append(b, `"events":`...)
	b = strconv.AppendUint(b, s.Events, 10)
	b = append(b, `,"pending_high":`...)
	b = strconv.AppendInt(b, int64(s.PendingHighwater), 10)
	b = append(b, `,"drops":`...)
	b = strconv.AppendUint(b, s.Drops, 10)
	b = append(b, `,"queue_high_b":`...)
	b = strconv.AppendInt(b, int64(s.QueueHighwaterB), 10)
	j.line(endEvent(b))
}

// appendSeconds renders a sim.Time as seconds with nanosecond resolution,
// fixed width after the point — deterministic for any value.
func appendSeconds(b []byte, t sim.Time) []byte {
	return strconv.AppendFloat(b, t.Seconds(), 'f', 9, 64)
}

// appendMillis renders a sim.Time as milliseconds, matching the packet
// trace CSV convention.
func appendMillis(b []byte, t sim.Time) []byte {
	return strconv.AppendFloat(b, t.Millis(), 'f', 6, 64)
}

// appendString renders a JSON string. Trace strings (cell keys, algorithm
// and state names) are plain ASCII; the escape path exists so arbitrary
// input can never produce malformed JSON.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
