// Package trace records per-packet link events during an experiment and
// exports them in CSV form, standing in for the paper's tcpdump packet
// captures. Analyses that the paper performs "offline via packet trace"
// (throughput/delay time series) are derived from these records.
package trace

import (
	"encoding/csv"
	"fmt"
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

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return &Trace{}, nil
	}
	tr := &Trace{}
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("trace: row %d has %d fields, want %d", i+2, len(row), len(csvHeader))
		}
		ts, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+2, err)
		}
		flow, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d flow: %w", i+2, err)
		}
		seq, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d seq: %w", i+2, err)
		}
		bytes, err := strconv.Atoi(row[3])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d bytes: %w", i+2, err)
		}
		isAck, err := strconv.ParseBool(row[4])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d is_ack: %w", i+2, err)
		}
		var kind netem.EventKind
		switch row[5] {
		case "enqueue":
			kind = netem.Enqueue
		case "drop":
			kind = netem.Drop
		case "deliver":
			kind = netem.Deliver
		default:
			return nil, fmt.Errorf("trace: row %d unknown kind %q", i+2, row[5])
		}
		queueB, err := strconv.Atoi(row[6])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d queue: %w", i+2, err)
		}
		soj, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d sojourn: %w", i+2, err)
		}
		tr.Records = append(tr.Records, Record{
			Time:    sim.Time(ts * float64(sim.Second)),
			Flow:    flow,
			Seq:     seq,
			Bytes:   bytes,
			IsAck:   isAck,
			Kind:    kind,
			QueueB:  queueB,
			Sojourn: sim.Time(soj * float64(sim.Millisecond)),
		})
	}
	return tr, nil
}
