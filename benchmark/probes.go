package main

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"time"

	quicbench "repro"
	"repro/internal/cluster"
	"repro/internal/dist/frame"
	"repro/internal/geom"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Probes time one layer in isolation, sized from the workload, for the
// numbers no boundary inside a trial can separate. Each takes the minimum
// of a few repeats: they are microbenchmarks of fixed work.

const probeRepeats = 3

// bestOf runs fn probeRepeats times and returns the shortest duration.
func bestOf(fn func()) time.Duration {
	var best time.Duration
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// probeSimNull is the engine alone: `pending` self-rescheduling no-op
// events keep the heap at the workload's pending highwater while n events
// fire. ns per event.
func probeSimNull(pending, n int) float64 {
	if pending < 1 {
		pending = 1
	}
	d := bestOf(func() {
		eng := sim.New()
		period := sim.Time(pending) * sim.Microsecond
		var tick func(any)
		tick = func(any) { eng.AtArg(eng.Now()+period, tick, nil) }
		for i := 0; i < pending; i++ {
			eng.AtArg(sim.Time(i)*sim.Microsecond, tick, nil)
		}
		for eng.Fired() < uint64(n) && eng.Step() {
		}
	})
	return float64(d.Nanoseconds()) / float64(n)
}

// probeNetemPump is a link alone: a constant-rate source offers pooled
// packets at the link's own rate into a droptail queue, the sink releases
// them; no transport, no controller. ns per packet, which includes the
// three engine events a packet costs here (source, serialization, delivery).
func probeNetemPump(rateBps float64, queueBytes, n int) float64 {
	d := bestOf(func() {
		eng := sim.New()
		link := netem.NewLink(eng, netem.LinkConfig{
			RateBps: rateBps, Propagation: 5 * sim.Millisecond, QueueBytes: queueBytes,
		}, netem.HandlerFunc(netem.ReleasePacket))
		gap := sim.Time(float64(1200*8) / rateBps * float64(sim.Second))
		sent := 0
		var source func(any)
		source = func(any) {
			p := netem.GetPacket()
			p.Flow, p.Seq, p.Size = 1, int64(sent), 1200
			link.HandlePacket(p)
			if sent++; sent < n {
				eng.AtArg(eng.Now()+gap, source, nil)
			}
		}
		eng.AtArg(0, source, nil)
		eng.Run()
	})
	return float64(d.Nanoseconds()) / float64(n)
}

// probeRunnerDispatch is supervision alone: n no-op trials through
// runner.Run with one worker and no journal. us per trial.
func probeRunnerDispatch(n int) float64 {
	trials := make([]runner.Trial, n)
	for i := range trials {
		trials[i] = runner.Trial{
			Key: "noop-" + strconv.Itoa(i),
			Run: func(context.Context) (any, error) { return struct{}{}, nil },
		}
	}
	d := bestOf(func() {
		_, _ = runner.Run(context.Background(), runner.Config{Workers: 1, MaxAttempts: 1}, trials) // no-op trials cannot fail
	})
	return float64(d.Microseconds()) / float64(n)
}

// probeJournalVerify is resume's integrity pass over one pass's journal.
// us per journal.
func probeJournalVerify(journal []byte) float64 {
	d := bestOf(func() {
		_, _, _ = runner.ParseJournalVerified(journal) // the checker already vetted these bytes
	})
	return float64(d.Nanoseconds()) / 1e3
}

// probeRender is the rendered sweep table. us per row.
func probeRender(sum *quicbench.SweepSummary) float64 {
	if sum == nil || len(sum.Cells) == 0 {
		return 0
	}
	const reps = 20
	d := bestOf(func() {
		for i := 0; i < reps; i++ {
			_ = quicbench.RenderSweep(io.Discard, sum) // io.Discard cannot fail
		}
	})
	return float64(d.Nanoseconds()) / 1e3 / reps / float64(len(sum.Cells))
}

// probeFrame is the wire codec: one journal-record-sized message written
// to and read back from memory. us per round trip.
func probeFrame(payload []byte) float64 {
	type msg struct {
		Type    string `json:"type"`
		Key     string `json:"key"`
		Payload []byte `json:"payload"`
	}
	const reps = 200
	in := msg{Type: "result", Key: "probe", Payload: payload}
	d := bestOf(func() {
		var buf bytes.Buffer
		for i := 0; i < reps; i++ {
			var out msg
			if frame.Write(&buf, in) != nil || frame.Read(&buf, &out) != nil {
				panic("benchmark: frame round trip failed in memory") // a harness bug, never input
			}
		}
	})
	return float64(d.Nanoseconds()) / 1e3 / reps
}

// geomProbes times the PE pipeline's inner layers on the workload's own
// point sets: the retention curve and one envelope (cluster), the convex
// hull and one hull intersection (geom).
func geomProbes(trials [][]geom.Point) map[string]float64 {
	m := map[string]float64{}
	var pts []geom.Point
	for _, t := range trials {
		pts = append(pts, t...)
	}
	if len(pts) < 3 {
		return m
	}
	const reps = 10
	m["cluster.retention_us"] = float64(bestOf(func() {
		for i := 0; i < reps; i++ {
			cluster.RetentionCurve(trials, 6, stats.NewRNG(1))
		}
	}).Nanoseconds()) / 1e3 / reps
	m["cluster.envelope_us"] = float64(bestOf(func() {
		for i := 0; i < reps; i++ {
			cluster.EnvelopeForK(trials, 2, stats.NewRNG(1))
		}
	}).Nanoseconds()) / 1e3 / reps
	m["geom.hull_ns_per_point"] = float64(bestOf(func() {
		for i := 0; i < reps*10; i++ {
			geom.ConvexHull(pts)
		}
	}).Nanoseconds()) / (reps * 10) / float64(len(pts))
	half := len(pts) / 2
	a, b := geom.ConvexHull(pts[:half+1]), geom.ConvexHull(pts[half/2:])
	m["geom.intersect_us"] = float64(bestOf(func() {
		for i := 0; i < reps*10; i++ {
			geom.Intersect(a, b)
		}
	}).Nanoseconds()) / 1e3 / (reps * 10)
	return m
}
