package trace

import (
	"bytes"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{Records: []Record{
		{Time: 1 * sim.Second, Flow: 1, Seq: 0, Bytes: 1200, Kind: netem.Enqueue, QueueB: 1200},
		{Time: 1*sim.Second + 500*sim.Microsecond, Flow: 1, Seq: 0, Bytes: 1200, Kind: netem.Deliver, QueueB: 0, Sojourn: 500 * sim.Microsecond},
		{Time: 2 * sim.Second, Flow: 2, Seq: 0, Bytes: 1200, Kind: netem.Drop, QueueB: 2400},
		{Time: 3 * sim.Second, Flow: 1, Seq: 1, Bytes: 40, IsAck: true, Kind: netem.Deliver},
	}}
}

func TestRecorderCapturesEvents(t *testing.T) {
	eng := sim.New()
	tr := &Trace{}
	link := netem.NewLink(eng, netem.LinkConfig{RateBps: 8e6, Propagation: sim.Millisecond, QueueBytes: 1000},
		netem.HandlerFunc(func(*netem.Packet) {}))
	link.Tap(tr.Recorder())
	link.HandlePacket(&netem.Packet{Flow: 7, Seq: 3, Size: 1000})
	link.HandlePacket(&netem.Packet{Flow: 7, Seq: 4, Size: 1000}) // dropped
	eng.Run()
	if len(tr.Records) != 3 { // enqueue, drop, deliver
		t.Fatalf("records = %d, want 3", len(tr.Records))
	}
	if tr.Records[1].Kind != netem.Drop {
		t.Fatalf("second record kind = %v", tr.Records[1].Kind)
	}
	if tr.Records[2].Flow != 7 || tr.Records[2].Seq != 3 {
		t.Fatalf("deliver record = %+v", tr.Records[2])
	}
}

// TestCSVRoundTrip pins WriteCSV's text for a sample trace: one header,
// one row per record, times in seconds to the nanosecond and sojourn in
// milliseconds to the microsecond.
func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "time_s,flow,seq,bytes,is_ack,kind,queue_bytes,sojourn_ms\n" +
		"1.000000000,1,0,1200,false,enqueue,1200,0.000000\n" +
		"1.000500000,1,0,1200,false,deliver,0,0.500000\n" +
		"2.000000000,2,0,1200,false,drop,2400,0.000000\n" +
		"3.000000000,1,1,40,true,deliver,0,0.000000\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV:\n%s\nwant:\n%s", got, want)
	}
}
