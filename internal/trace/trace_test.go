package trace

import (
	"bytes"
	"strings"
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

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		if a.Flow != b.Flow || a.Seq != b.Seq || a.Bytes != b.Bytes ||
			a.IsAck != b.IsAck || a.Kind != b.Kind || a.QueueB != b.QueueB {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		if d := a.Time - b.Time; d < -sim.Microsecond || d > sim.Microsecond {
			t.Fatalf("record %d time drift: %v vs %v", i, a.Time, b.Time)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader(""))
	if err != nil || len(tr.Records) != 0 {
		t.Fatalf("empty read: %v %v", tr, err)
	}
}

func TestReadCSVRejectsBadRows(t *testing.T) {
	hdr := "time_s,flow,seq,bytes,is_ack,kind,queue_bytes,sojourn_ms\n"
	cases := []string{
		hdr + "x,1,0,1200,false,deliver,0,0\n",
		hdr + "1.0,x,0,1200,false,deliver,0,0\n",
		hdr + "1.0,1,0,1200,false,exploded,0,0\n",
		hdr + "1.0,1,0,1200,maybe,deliver,0,0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: bad row accepted", i)
		}
	}
}
