package trace

import (
	"encoding/csv"
	"io"

	"repro/internal/netem"
)

// StreamRecorder is the O(1)-memory alternative to Trace.Recorder: link
// events are written through to w as CSV rows (same columns and
// formatting as Trace.WriteCSV) instead of accumulating in RAM. Long
// sweep runs attach this to the bottleneck so per-packet capture cannot
// grow without bound.
//
// Errors are sticky: the first write failure is retained, later events
// become no-ops, and the caller checks Flush (or Err) once at trial end.
type StreamRecorder struct {
	cw  *csv.Writer
	err error
}

// NewStreamRecorder starts a streaming CSV trace on w, writing the header
// row immediately.
func NewStreamRecorder(w io.Writer) *StreamRecorder {
	sr := &StreamRecorder{cw: csv.NewWriter(w)}
	sr.err = sr.cw.Write(csvHeader)
	return sr
}

// record writes one event row.
func (sr *StreamRecorder) record(ev netem.LinkEvent) {
	if sr.err != nil {
		return
	}
	row := recordOf(ev).row()
	sr.err = sr.cw.Write(row[:])
}

// Recorder returns a tap that streams every link event. Attach it with
// (*netem.Link).Tap.
func (sr *StreamRecorder) Recorder() func(netem.LinkEvent) {
	return sr.record
}

// Flush drains buffered rows to the underlying writer and reports the
// sticky error, if any.
func (sr *StreamRecorder) Flush() error {
	if sr.err != nil {
		return sr.err
	}
	sr.cw.Flush()
	sr.err = sr.cw.Error()
	return sr.err
}
