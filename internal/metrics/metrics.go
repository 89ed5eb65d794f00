// Package metrics turns raw flow traces (per-packet delivery records and
// RTT samples) into the delay/throughput time series the Performance
// Envelope is built from, following §3.1 of the paper: traces are truncated
// by 10% at both ends to remove transients, and (delay, throughput) pairs
// are sampled every 10 RTTs.
package metrics

import (
	"repro/internal/geom"
	"repro/internal/sim"
)

// Delivery is one data-packet arrival at the receiver.
type Delivery struct {
	Time  sim.Time
	Bytes int
}

// RTT is one sender-side RTT observation.
type RTT struct {
	Time sim.Time
	RTT  sim.Time
}

// FlowTrace accumulates a flow's measurement record during a run. It is
// intended to be fed from transport hooks.
type FlowTrace struct {
	Deliveries []Delivery
	RTTs       []RTT
}

// AddDelivery appends a delivery record.
func (ft *FlowTrace) AddDelivery(t sim.Time, bytes int) {
	ft.Deliveries = append(ft.Deliveries, Delivery{Time: t, Bytes: bytes})
}

// AddRTT appends an RTT sample.
func (ft *FlowTrace) AddRTT(t, rtt sim.Time) {
	ft.RTTs = append(ft.RTTs, RTT{Time: t, RTT: rtt})
}

// TotalBytes returns the sum of delivered bytes in [start, end).
func (ft *FlowTrace) TotalBytes(start, end sim.Time) int64 {
	var total int64
	for _, d := range ft.Deliveries {
		if d.Time >= start && d.Time < end {
			total += int64(d.Bytes)
		}
	}
	return total
}

// MeanThroughputMbps returns the average delivered rate over [start, end).
func (ft *FlowTrace) MeanThroughputMbps(start, end sim.Time) float64 {
	if end <= start {
		return 0
	}
	return float64(ft.TotalBytes(start, end)) * 8 / (end - start).Seconds() / 1e6
}

// SampleOptions configures time-series extraction.
type SampleOptions struct {
	// RunDuration is the full flow duration.
	RunDuration sim.Time
	// BaseRTT is the experiment's configured round-trip time; the sampling
	// window is SampleRTTs * BaseRTT.
	BaseRTT sim.Time
	// SampleRTTs defaults to 10 (the paper samples every 10 RTTs).
	SampleRTTs int
	// TruncateFrac defaults to 0.10 (10% removed from each end).
	TruncateFrac float64
}

func (o SampleOptions) withDefaults() SampleOptions {
	if o.SampleRTTs <= 0 {
		o.SampleRTTs = 10
	}
	if o.TruncateFrac == 0 {
		o.TruncateFrac = 0.10
	}
	return o
}

// Window bounds the truncated measurement interval.
func (o SampleOptions) Window() (start, end sim.Time) {
	o = o.withDefaults()
	trim := sim.Time(float64(o.RunDuration) * o.TruncateFrac)
	return trim, o.RunDuration - trim
}

// windows walks a flow trace's truncated measurement interval in
// consecutive sampling windows, summing each window's delivered bytes and
// RTT samples. Use: for w := newWindows(ft, opts); w.next(); { ... }.
type windows struct {
	ft     *FlowTrace
	window sim.Time // window length
	end    sim.Time // end of the truncated interval
	di, ri int      // cursors into ft.Deliveries and ft.RTTs

	// The current window, valid after next returns true.
	start  sim.Time
	bytes  int64
	rttSum sim.Time
	rttN   int
}

func newWindows(ft *FlowTrace, opts SampleOptions) windows {
	opts = opts.withDefaults()
	start, end := opts.Window()
	w := windows{ft: ft, window: sim.Time(opts.SampleRTTs) * opts.BaseRTT, end: end}
	// Advance past pre-window records.
	for w.di < len(ft.Deliveries) && ft.Deliveries[w.di].Time < start {
		w.di++
	}
	for w.ri < len(ft.RTTs) && ft.RTTs[w.ri].Time < start {
		w.ri++
	}
	w.start = start - w.window // the first next steps onto start
	return w
}

// next advances to the following window, reporting false once no whole
// window fits before the end of the interval (at once when the interval is
// empty or the window length is not positive).
func (w *windows) next() bool {
	w.start += w.window
	wEnd := w.start + w.window
	if w.window <= 0 || wEnd > w.end {
		return false
	}
	ft := w.ft
	w.bytes, w.rttSum, w.rttN = 0, 0, 0
	for w.di < len(ft.Deliveries) && ft.Deliveries[w.di].Time < wEnd {
		w.bytes += int64(ft.Deliveries[w.di].Bytes)
		w.di++
	}
	for w.ri < len(ft.RTTs) && ft.RTTs[w.ri].Time < wEnd {
		w.rttSum += ft.RTTs[w.ri].RTT
		w.rttN++
		w.ri++
	}
	return true
}

// mbps is the current window's delivered throughput in Mbit/s.
func (w *windows) mbps() float64 {
	return float64(w.bytes) * 8 / w.window.Seconds() / 1e6
}

// delayMs is the current window's mean RTT in milliseconds; the window
// must hold at least one RTT sample.
func (w *windows) delayMs() float64 {
	return (w.rttSum / sim.Time(w.rttN)).Millis()
}

// Points converts a flow trace into (delay, throughput) samples on the
// delay/throughput plane: X = mean RTT in the window in milliseconds,
// Y = delivered throughput in the window in Mbit/s. Windows without both a
// delivery and an RTT sample are skipped.
func Points(ft *FlowTrace, opts SampleOptions) []geom.Point {
	var pts []geom.Point
	for w := newWindows(ft, opts); w.next(); {
		if w.bytes == 0 || w.rttN == 0 {
			continue
		}
		pts = append(pts, geom.Point{X: w.delayMs(), Y: w.mbps()})
	}
	return pts
}

// TimeSeries returns aligned (time, throughput Mbps, delay ms) triples for
// plotting, using the same windows as Points but without skipping empty
// windows (zeros are reported instead). Used by the quiche CUBIC fix
// figure, which shows throughput over time.
type SeriesPoint struct {
	Time     sim.Time
	Mbps     float64
	DelayMs  float64
	HasDelay bool
}

// Series extracts the full windowed time series.
func Series(ft *FlowTrace, opts SampleOptions) []SeriesPoint {
	var out []SeriesPoint
	for w := newWindows(ft, opts); w.next(); {
		sp := SeriesPoint{Time: w.start + w.window/2, Mbps: w.mbps()}
		if w.rttN > 0 {
			sp.DelayMs = w.delayMs()
			sp.HasDelay = true
		}
		out = append(out, sp)
	}
	return out
}
