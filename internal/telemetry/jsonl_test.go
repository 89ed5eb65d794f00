package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// writeSampleTrace emits one of every event type and returns the bytes.
func writeSampleTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Header(TraceMeta{Cell: "quicgo/cubic/20Mbps/10ms/1.0BDP/2s/x2/seed1", Role: "test", Trial: 0, Seed: 42})
	j.StateChanged(0, 1, "cubic", "", "slow_start")
	j.MetricsUpdated(10*sim.Millisecond, 1, Metrics{
		CWND: 12000, SSThresh: -1, BytesInFlight: 2400, PacingRate: 2.5e6,
		SRTT: 10 * sim.Millisecond, MinRTT: 10 * sim.Millisecond, LatestRTT: 10 * sim.Millisecond,
	})
	j.PacketsLost(25*sim.Millisecond, 1, LossSample{
		LostBytes: 2400, Packets: 2, PktThreshold: 2,
		LargestLostSent: 12 * sim.Millisecond,
	})
	j.CongestionEvent(25*sim.Millisecond, 1, "cubic", Congestion{LostBytes: 2400, CWND: 8400, SSThresh: 8400})
	j.StateChanged(25*sim.Millisecond, 1, "cubic", "slow_start", "recovery")
	j.SpuriousLoss(30*sim.Millisecond, 1, 12*sim.Millisecond)
	j.Rollback(30*sim.Millisecond, 1, 12000, -1)
	j.PTOExpired(200*sim.Millisecond, 1, 1)
	j.TransportSummary(sim.Second, 1, TransportStats{PacketsSent: 100, BytesSent: 120000, PacketsAcked: 95, BytesAcked: 114000, PacketsLost: 2, BytesLost: 2400, SpuriousLosses: 1, PTOCount: 1, RTTSamples: 80})
	j.TrialSummary(sim.Second, TrialSummary{Events: 1234, PendingHighwater: 40, Drops: 2, QueueHighwaterB: 25000})
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func TestJSONLRoundTrip(t *testing.T) {
	raw := writeSampleTrace(t)
	hdr, evs, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if hdr.Schema != TraceSchema || hdr.Seed != 42 || hdr.Role != "test" {
		t.Errorf("header = %+v", hdr)
	}
	wantNames := []string{EvState, EvMetrics, EvPacketsLost, EvCongestion, EvState, EvSpurious, EvRollback, EvPTO, EvTransport, EvTrial}
	if len(evs) != len(wantNames) {
		t.Fatalf("decoded %d events, want %d", len(evs), len(wantNames))
	}
	for i, ev := range evs {
		if ev.Name != wantNames[i] {
			t.Errorf("event %d name = %s, want %s", i, ev.Name, wantNames[i])
		}
	}
	if cwnd := evs[1].Data["cwnd"].(float64); cwnd != 12000 {
		t.Errorf("metrics cwnd = %v, want 12000", cwnd)
	}
	if _, ok := evs[1].Data["ssthresh"]; ok {
		t.Error("ssthresh -1 should be omitted from metrics_updated")
	}
}

// TestJSONLGoldenLine pins the exact byte encoding of a metrics line —
// the trace bit-identity guarantees depend on this never drifting
// silently.
func TestJSONLGoldenLine(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.MetricsUpdated(1500*sim.Microsecond, 2, Metrics{
		CWND: 24000, SSThresh: 12000, BytesInFlight: 3600, PacingRate: 1.25e6,
		SRTT: 10 * sim.Millisecond, MinRTT: 9 * sim.Millisecond, LatestRTT: 11 * sim.Millisecond,
	})
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := `{"t":0.001500000,"flow":2,"name":"recovery:metrics_updated","data":{"cwnd":24000,"ssthresh":12000,"bytes_in_flight":3600,"pacing_rate":1.25e+06,"srtt_ms":10.000000,"min_rtt_ms":9.000000,"latest_rtt_ms":11.000000}}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("metrics line drifted:\ngot  %s\nwant %s", got, want)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	a := writeSampleTrace(t)
	b := writeSampleTrace(t)
	if !bytes.Equal(a, b) {
		t.Error("identical event sequences encoded to different bytes")
	}
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Header(TraceMeta{})
	for i := 0; i < 10000; i++ { // overflow the 32k buffer to force writes
		j.PTOExpired(sim.Time(i), 1, i)
	}
	if err := j.Flush(); err == nil {
		t.Fatal("Flush on a failing writer returned nil")
	}
	if j.err == nil {
		t.Fatal("sticky error not retained")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("boom") }

func TestAppendStringEscapes(t *testing.T) {
	got := string(appendString(nil, "a\"b\\c\nd"))
	want := "\"a\\\"b\\\\c\\u000ad\""
	if got != want {
		t.Errorf("appendString = %s, want %s", got, want)
	}
}

func TestReadTraceRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"garbage":      "not json\n",
		"wrong schema": `{"schema":"other/v1"}` + "\n",
		"unknown name": `{"schema":"quicbench-qlog/v1"}` + "\n" + `{"t":1,"flow":1,"name":"nope","data":{}}` + "\n",
		"missing data": `{"schema":"quicbench-qlog/v1"}` + "\n" + `{"t":1,"flow":1,"name":"recovery:pto_expired","data":{}}` + "\n",
		"bad type":     `{"schema":"quicbench-qlog/v1"}` + "\n" + `{"t":1,"flow":1,"name":"recovery:pto_expired","data":{"count":[1]}}` + "\n",
		"neg time":     `{"schema":"quicbench-qlog/v1"}` + "\n" + `{"t":-1,"flow":1,"name":"recovery:pto_expired","data":{"count":1}}` + "\n",
		"huge line":    `{"schema":"quicbench-qlog/v1"}` + "\n" + strings.Repeat("x", maxTraceLine+1) + "\n",
	}
	for name, in := range cases {
		if _, _, err := ReadTrace(strings.NewReader(in)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
}
