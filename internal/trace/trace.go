// Package trace records per-packet link events during an experiment and
// exports them in CSV form, standing in for the paper's tcpdump packet
// captures. Analyses that the paper performs "offline via packet trace"
// (throughput/delay time series) are derived from these records.
package trace

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Record is one packet event.
type Record struct {
	Time    sim.Time
	Flow    int
	Seq     int64
	Bytes   int
	IsAck   bool
	Kind    netem.EventKind
	QueueB  int
	Sojourn sim.Time
}

// Trace is an append-only packet event log.
type Trace struct {
	Records []Record
}

// recordOf captures one link event.
func recordOf(ev netem.LinkEvent) Record {
	return Record{
		Time:    ev.Time,
		Flow:    ev.Packet.Flow,
		Seq:     ev.Packet.Seq,
		Bytes:   ev.Packet.Size,
		IsAck:   ev.Packet.IsAck,
		Kind:    ev.Kind,
		QueueB:  ev.QueueB,
		Sojourn: ev.Sojourn,
	}
}

// Recorder returns a tap function that appends every link event to the
// trace. Attach it with (*netem.Link).Tap.
func (tr *Trace) Recorder() func(netem.LinkEvent) {
	return func(ev netem.LinkEvent) {
		tr.Records = append(tr.Records, recordOf(ev))
	}
}

// csvHeader is the exported column set.
var csvHeader = []string{"time_s", "flow", "seq", "bytes", "is_ack", "kind", "queue_bytes", "sojourn_ms"}

// row formats the record as its CSV columns, in csvHeader order. This is
// the one place the column format is written down.
func (r Record) row() [8]string {
	return [8]string{
		strconv.FormatFloat(r.Time.Seconds(), 'f', 9, 64),
		strconv.Itoa(r.Flow),
		strconv.FormatInt(r.Seq, 10),
		strconv.Itoa(r.Bytes),
		strconv.FormatBool(r.IsAck),
		r.Kind.String(),
		strconv.Itoa(r.QueueB),
		strconv.FormatFloat(r.Sojourn.Millis(), 'f', 6, 64),
	}
}

// WriteCSV exports the trace.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range tr.Records {
		row := r.row()
		if err := cw.Write(row[:]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
