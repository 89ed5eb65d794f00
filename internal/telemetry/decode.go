package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrBadTrace tags every decoder validation failure so callers can
// errors.Is-match corrupt input regardless of the specific defect.
var ErrBadTrace = errors.New("telemetry: bad trace")

// Header is the decoded first line of a trace file.
type Header struct {
	Schema string `json:"schema"`
	Cell   string `json:"cell,omitempty"`
	Role   string `json:"role,omitempty"`
	Trial  int    `json:"trial"`
	Seed   uint64 `json:"seed"`
}

// Event is one decoded trace line. Data values are the generic
// encoding/json forms (float64 for numbers).
type Event struct {
	T    float64        `json:"t"`
	Flow int            `json:"flow"`
	Name string         `json:"name"`
	Data map[string]any `json:"data"`
}

// maxTraceLine bounds a single trace line; real lines are a few hundred
// bytes, so anything larger is corrupt input, not a big event.
const maxTraceLine = 1 << 20

// requiredFields lists, per event name, the data keys Validate demands.
// Optional keys (ssthresh, from) are deliberately absent.
var requiredFields = map[string][]string{
	EvMetrics:     {"cwnd", "bytes_in_flight", "pacing_rate", "srtt_ms", "min_rtt_ms", "latest_rtt_ms"},
	EvState:       {"algo", "to"},
	EvCongestion:  {"algo", "lost_bytes", "cwnd", "persistent"},
	EvPacketsLost: {"lost_bytes", "packets", "pkt_threshold", "time_threshold", "flight_reset", "largest_lost_sent", "persistent"},
	EvSpurious:    {"sent_at"},
	EvRollback:    {"cwnd"},
	EvPTO:         {"count"},
	EvTransport:   {"pkts_sent", "bytes_sent", "pkts_acked", "bytes_acked", "pkts_lost", "bytes_lost", "spurious", "pto", "persistent", "rtt_samples"},
	EvTrial:       {"events", "pending_high", "drops", "queue_high_b"},
}

// ReadTrace decodes a full trace stream: the header line followed by zero
// or more events. It never panics on corrupt input; any defect — bad
// JSON, wrong schema, unknown event name, missing field, oversized line —
// is reported as an error wrapping ErrBadTrace.
func ReadTrace(r io.Reader) (Header, []Event, error) {
	var hdr Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxTraceLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, fmt.Errorf("%w: header: %v", ErrBadTrace, err)
		}
		return hdr, nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("%w: header: %v", ErrBadTrace, err)
	}
	if hdr.Schema != TraceSchema {
		return hdr, nil, fmt.Errorf("%w: schema %q, want %q", ErrBadTrace, hdr.Schema, TraceSchema)
	}
	var evs []Event
	line := 1
	for sc.Scan() {
		line++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return hdr, evs, fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, err)
		}
		if err := ValidateEvent(ev); err != nil {
			return hdr, evs, fmt.Errorf("line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return hdr, evs, fmt.Errorf("%w: line %d: %v", ErrBadTrace, line+1, err)
	}
	return hdr, evs, nil
}

// ValidateEvent checks one event against the schema: known name, all
// required data fields present, numeric fields numeric.
func ValidateEvent(ev Event) error {
	req, ok := requiredFields[ev.Name]
	if !ok {
		return fmt.Errorf("%w: unknown event name %q", ErrBadTrace, ev.Name)
	}
	if ev.T < 0 {
		return fmt.Errorf("%w: %s: negative timestamp %v", ErrBadTrace, ev.Name, ev.T)
	}
	if ev.Flow < 0 {
		return fmt.Errorf("%w: %s: negative flow %d", ErrBadTrace, ev.Name, ev.Flow)
	}
	for _, k := range req {
		v, ok := ev.Data[k]
		if !ok {
			return fmt.Errorf("%w: %s: missing field %q", ErrBadTrace, ev.Name, k)
		}
		switch v.(type) {
		case float64, bool, string:
		default:
			return fmt.Errorf("%w: %s: field %q has non-scalar type %T", ErrBadTrace, ev.Name, k, v)
		}
	}
	return nil
}
