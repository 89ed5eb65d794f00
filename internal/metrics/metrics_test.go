package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// steadyTrace builds a trace delivering `rateMbps` uniformly with constant
// RTT over the duration.
func steadyTrace(rateMbps float64, rtt sim.Time, duration sim.Time) *FlowTrace {
	ft := &FlowTrace{}
	pktBytes := 1200
	interval := sim.Time(float64(pktBytes*8) / (rateMbps * 1e6) * float64(sim.Second))
	for t := sim.Time(0); t < duration; t += interval {
		ft.AddDelivery(t, pktBytes)
	}
	for t := sim.Time(0); t < duration; t += rtt {
		ft.AddRTT(t, rtt)
	}
	return ft
}

func TestTotalBytesWindowing(t *testing.T) {
	ft := &FlowTrace{}
	ft.AddDelivery(1*sim.Second, 100)
	ft.AddDelivery(2*sim.Second, 200)
	ft.AddDelivery(3*sim.Second, 400)
	if got := ft.TotalBytes(1500*sim.Millisecond, 3*sim.Second); got != 200 {
		t.Fatalf("TotalBytes = %d, want 200", got)
	}
	if got := ft.TotalBytes(0, 10*sim.Second); got != 700 {
		t.Fatalf("TotalBytes all = %d", got)
	}
}

func TestMeanThroughput(t *testing.T) {
	ft := steadyTrace(20, 10*sim.Millisecond, 10*sim.Second)
	got := ft.MeanThroughputMbps(0, 10*sim.Second)
	if math.Abs(got-20) > 0.5 {
		t.Fatalf("throughput = %v, want ~20", got)
	}
	if ft.MeanThroughputMbps(5*sim.Second, 5*sim.Second) != 0 {
		t.Fatal("empty window should be 0")
	}
}

func TestWindowTruncation(t *testing.T) {
	opts := SampleOptions{RunDuration: 100 * sim.Second, BaseRTT: 10 * sim.Millisecond}
	start, end := opts.Window()
	if start != 10*sim.Second || end != 90*sim.Second {
		t.Fatalf("window = [%v, %v], want [10s, 90s]", start, end)
	}
}

func TestPointsSteadyFlow(t *testing.T) {
	ft := steadyTrace(20, 10*sim.Millisecond, 100*sim.Second)
	opts := SampleOptions{RunDuration: 100 * sim.Second, BaseRTT: 10 * sim.Millisecond}
	pts := Points(ft, opts)
	// 80 s of windows at 100 ms each = 800 samples.
	if len(pts) != 800 {
		t.Fatalf("points = %d, want 800", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Y-20) > 1.5 {
			t.Fatalf("throughput sample %v, want ~20 Mbps", p.Y)
		}
		if math.Abs(p.X-10) > 0.01 {
			t.Fatalf("delay sample %v, want 10 ms", p.X)
		}
	}
}

func TestPointsSkipEmptyWindows(t *testing.T) {
	ft := &FlowTrace{}
	// Single burst in the middle of the run.
	ft.AddDelivery(50*sim.Second, 1200)
	ft.AddRTT(50*sim.Second, 10*sim.Millisecond)
	opts := SampleOptions{RunDuration: 100 * sim.Second, BaseRTT: 10 * sim.Millisecond}
	pts := Points(ft, opts)
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
}

func TestPointsEmptyTrace(t *testing.T) {
	if pts := Points(&FlowTrace{}, SampleOptions{RunDuration: sim.Second, BaseRTT: sim.Millisecond}); pts != nil {
		t.Fatalf("points from empty trace: %v", pts)
	}
}

func TestPointsZeroWindow(t *testing.T) {
	ft := steadyTrace(20, 10*sim.Millisecond, sim.Second)
	if pts := Points(ft, SampleOptions{RunDuration: sim.Second, BaseRTT: 0}); pts != nil {
		t.Fatal("zero BaseRTT should produce no points")
	}
}

func TestPointsCustomSampleRTTs(t *testing.T) {
	ft := steadyTrace(20, 10*sim.Millisecond, 100*sim.Second)
	opts := SampleOptions{RunDuration: 100 * sim.Second, BaseRTT: 10 * sim.Millisecond, SampleRTTs: 20}
	pts := Points(ft, opts)
	if len(pts) != 400 {
		t.Fatalf("points = %d, want 400 at 20-RTT windows", len(pts))
	}
}

func TestSeriesIncludesEmptyWindows(t *testing.T) {
	ft := &FlowTrace{}
	ft.AddDelivery(50*sim.Second, 1200)
	ft.AddRTT(50*sim.Second, 10*sim.Millisecond)
	opts := SampleOptions{RunDuration: 100 * sim.Second, BaseRTT: 10 * sim.Millisecond}
	series := Series(ft, opts)
	if len(series) != 800 {
		t.Fatalf("series = %d, want 800 windows", len(series))
	}
	nonZero := 0
	for _, sp := range series {
		if sp.Mbps > 0 {
			nonZero++
			if !sp.HasDelay {
				t.Fatal("delivering window lost its delay")
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("nonZero = %d, want 1", nonZero)
	}
}

func TestSeriesTimesAreWindowCenters(t *testing.T) {
	ft := steadyTrace(20, 10*sim.Millisecond, 10*sim.Second)
	opts := SampleOptions{RunDuration: 10 * sim.Second, BaseRTT: 10 * sim.Millisecond}
	series := Series(ft, opts)
	if len(series) == 0 {
		t.Fatal("no series")
	}
	// First window [1s, 1.1s): center 1.05 s.
	if series[0].Time != 1050*sim.Millisecond {
		t.Fatalf("first window center = %v, want 1.05s", series[0].Time)
	}
}

func TestTruncationRemovesTransient(t *testing.T) {
	// Flow ramps up: first 10% has low rate, rest high. Truncation should
	// hide the ramp.
	ft := &FlowTrace{}
	for t := sim.Time(0); t < 10*sim.Second; t += 10 * sim.Millisecond {
		bytes := 12000
		if t < sim.Second {
			bytes = 100
		}
		ft.AddDelivery(t, bytes)
		ft.AddRTT(t, 10*sim.Millisecond)
	}
	opts := SampleOptions{RunDuration: 10 * sim.Second, BaseRTT: 10 * sim.Millisecond}
	pts := Points(ft, opts)
	for _, p := range pts {
		if p.Y < 5 {
			t.Fatalf("transient sample leaked through truncation: %v", p)
		}
	}
}

// Points is Series with the windows that lack a delivery or an RTT sample
// dropped: both read the same window walk, so over a random trace — bursty
// enough that every kind of window (both, deliveries only, RTTs only,
// neither) occurs — the kept samples must agree bit for bit.
func TestPointsEqualsFilteredSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const duration = 20 * sim.Second
	ft := &FlowTrace{}
	for t := sim.Time(0); t < duration; t += sim.Time(rng.Int63n(int64(150 * sim.Millisecond))) {
		ft.AddDelivery(t, 1+rng.Intn(1500))
	}
	for t := sim.Time(0); t < duration; t += sim.Time(rng.Int63n(int64(150 * sim.Millisecond))) {
		ft.AddRTT(t, sim.Time(1+rng.Int63n(int64(80*sim.Millisecond))))
	}
	opts := SampleOptions{RunDuration: duration, BaseRTT: 7 * sim.Millisecond, SampleRTTs: 5}

	var want []geom.Point
	kinds := map[[2]bool]int{}
	for _, sp := range Series(ft, opts) {
		kinds[[2]bool{sp.Mbps > 0, sp.HasDelay}]++
		if sp.Mbps > 0 && sp.HasDelay {
			want = append(want, geom.Point{X: sp.DelayMs, Y: sp.Mbps})
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("trace does not exercise every window kind: %v", kinds)
	}
	got := Points(ft, opts)
	if len(got) != len(want) {
		t.Fatalf("Points kept %d windows, filtered Series %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: Points %v, Series %v", i, got[i], want[i])
		}
	}
}
