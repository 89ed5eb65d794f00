package main

import (
	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The interposers sit at the boundaries between layers. Each one delegates
// and brackets the call with a span; none of them changes an argument, a
// result, the event order or an RNG draw.

// timedCC delegates every cc.Controller call, counting all of them and
// timing the four event methods.
type timedCC struct {
	inner cc.Controller
	h     *hot
}

func (c *timedCC) Name() string        { c.h.ccCalls++; return c.inner.Name() }
func (c *timedCC) CWND() int           { c.h.ccCalls++; return c.inner.CWND() }
func (c *timedCC) PacingRate() float64 { c.h.ccCalls++; return c.inner.PacingRate() }
func (c *timedCC) InSlowStart() bool   { c.h.ccCalls++; return c.inner.InSlowStart() }

func (c *timedCC) OnPacketSent(now sim.Time, bytes, bytesInFlight int) {
	c.h.ccCalls++
	c.h.enter(kCCOnSent)
	c.inner.OnPacketSent(now, bytes, bytesInFlight)
	c.h.exit()
}

func (c *timedCC) OnAck(ev cc.AckEvent) {
	c.h.ccCalls++
	c.h.enter(kCCOnAck)
	c.inner.OnAck(ev)
	c.h.exit()
}

func (c *timedCC) OnLoss(ev cc.LossEvent) {
	c.h.ccCalls++
	c.h.enter(kCCOnLoss)
	c.inner.OnLoss(ev)
	c.h.exit()
}

func (c *timedCC) OnSpuriousLoss(now, sentAt sim.Time) {
	c.h.ccCalls++
	c.h.enter(kCCOnLoss)
	c.inner.OnSpuriousLoss(now, sentAt)
	c.h.exit()
}

// SetTracer implements cc.TraceSetter by forwarding when the wrapped
// controller can trace, exactly as transport.Sender.SetTracer would.
func (c *timedCC) SetTracer(t telemetry.Tracer, flow int) {
	if ts, ok := c.inner.(cc.TraceSetter); ok {
		ts.SetTracer(t, flow)
	}
}

// The transport type-asserts its controller for two optional interfaces;
// the wrapper must offer exactly the ones the wrapped controller has, or
// pacing bursts and traced ssthresh values would change.
type (
	timedLossCC      struct{ *timedCC } // cc.SSThresher
	timedBurstCC     struct{ *timedCC } // transport.BurstSizer
	timedLossBurstCC struct{ *timedCC } // both
)

func (c timedLossCC) SSThresh() int      { return c.inner.(cc.SSThresher).SSThresh() }
func (c timedLossBurstCC) SSThresh() int { return c.inner.(cc.SSThresher).SSThresh() }
func (c timedBurstCC) PacingBurst(mss int) int {
	return c.inner.(transport.BurstSizer).PacingBurst(mss)
}
func (c timedLossBurstCC) PacingBurst(mss int) int {
	return c.inner.(transport.BurstSizer).PacingBurst(mss)
}

func wrapCC(inner cc.Controller, h *hot) cc.Controller {
	base := &timedCC{inner: inner, h: h}
	_, loss := inner.(cc.SSThresher)
	_, burst := inner.(transport.BurstSizer)
	switch {
	case loss && burst:
		return timedLossBurstCC{base}
	case loss:
		return timedLossCC{base}
	case burst:
		return timedBurstCC{base}
	default:
		return base
	}
}

// timedHandler brackets a netem.Handler boundary.
type timedHandler struct {
	inner netem.Handler
	h     *hot
	kind  spanKind
}

func (t timedHandler) HandlePacket(p *netem.Packet) {
	t.h.enter(t.kind)
	t.inner.HandlePacket(p)
	t.h.exit()
}

// timedClock is a transport.Clock on the simulation engine whose timers
// time their callbacks.
type timedClock struct {
	eng  *sim.Engine
	h    *hot
	kind spanKind
}

func (c timedClock) Now() sim.Time { return c.eng.Now() }

func (c timedClock) NewTimer(fn func()) transport.TimerHandle {
	return sim.NewTimer(c.eng, func() {
		c.h.enter(c.kind)
		fn()
		c.h.exit()
	})
}

// timedTracer brackets every telemetry.Tracer call: the qlog sink's cost.
type timedTracer struct {
	inner telemetry.Tracer
	h     *hot
}

func (t timedTracer) MetricsUpdated(now sim.Time, flow int, m telemetry.Metrics) {
	t.h.enter(kTelemetry)
	t.inner.MetricsUpdated(now, flow, m)
	t.h.exit()
}

func (t timedTracer) StateChanged(now sim.Time, flow int, algo, from, to string) {
	t.h.enter(kTelemetry)
	t.inner.StateChanged(now, flow, algo, from, to)
	t.h.exit()
}

func (t timedTracer) CongestionEvent(now sim.Time, flow int, algo string, c telemetry.Congestion) {
	t.h.enter(kTelemetry)
	t.inner.CongestionEvent(now, flow, algo, c)
	t.h.exit()
}

func (t timedTracer) PacketsLost(now sim.Time, flow int, l telemetry.LossSample) {
	t.h.enter(kTelemetry)
	t.inner.PacketsLost(now, flow, l)
	t.h.exit()
}

func (t timedTracer) SpuriousLoss(now sim.Time, flow int, sentAt sim.Time) {
	t.h.enter(kTelemetry)
	t.inner.SpuriousLoss(now, flow, sentAt)
	t.h.exit()
}

func (t timedTracer) Rollback(now sim.Time, flow int, cwnd, ssthresh int) {
	t.h.enter(kTelemetry)
	t.inner.Rollback(now, flow, cwnd, ssthresh)
	t.h.exit()
}

func (t timedTracer) PTOExpired(now sim.Time, flow int, count int) {
	t.h.enter(kTelemetry)
	t.inner.PTOExpired(now, flow, count)
	t.h.exit()
}

func (t timedTracer) TransportSummary(now sim.Time, flow int, s telemetry.TransportStats) {
	t.h.enter(kTelemetry)
	t.inner.TransportSummary(now, flow, s)
	t.h.exit()
}

func (t timedTracer) TrialSummary(now sim.Time, s telemetry.TrialSummary) {
	t.h.enter(kTelemetry)
	t.inner.TrialSummary(now, s)
	t.h.exit()
}
