package trace

import (
	"bytes"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// sampleEvents fabricates a small deterministic event stream.
func sampleEvents(n int) []netem.LinkEvent {
	evs := make([]netem.LinkEvent, 0, n)
	for i := 0; i < n; i++ {
		kind := netem.Deliver
		if i%7 == 3 {
			kind = netem.Drop
		} else if i%2 == 0 {
			kind = netem.Enqueue
		}
		evs = append(evs, netem.LinkEvent{
			Time:    sim.Time(i) * sim.Millisecond,
			Kind:    kind,
			QueueB:  i * 100,
			Sojourn: sim.Time(i) * sim.Microsecond,
			Packet:  &netem.Packet{Flow: 1 + i%2, Seq: int64(i), Size: 1200, IsAck: i%5 == 0},
		})
	}
	return evs
}

// TestStreamRecorderMatchesWriteCSV: the streaming recorder must produce
// byte-identical CSV to the accumulate-then-WriteCSV path it replaces.
func TestStreamRecorderMatchesWriteCSV(t *testing.T) {
	evs := sampleEvents(100)

	var mem Trace
	tap := mem.Recorder()
	for _, ev := range evs {
		tap(ev)
	}
	var want bytes.Buffer
	if err := mem.WriteCSV(&want); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}

	var got bytes.Buffer
	sr := NewStreamRecorder(&got)
	stap := sr.Recorder()
	for _, ev := range evs {
		stap(ev)
	}
	if err := sr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("streamed CSV differs from WriteCSV:\nwant %d bytes\ngot  %d bytes", want.Len(), got.Len())
	}
}

func TestStreamRecorderStickyError(t *testing.T) {
	sr := NewStreamRecorder(failWriter{})
	tap := sr.Recorder()
	for _, ev := range sampleEvents(2000) { // exceed the csv.Writer buffer
		tap(ev)
	}
	if sr.Flush() == nil {
		t.Fatal("Flush on a failing writer returned nil")
	}
	if sr.Flush() == nil {
		t.Fatal("sticky error not retained")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errBoom }

var errBoom = bytes.ErrTooLarge
