package transport

import "repro/internal/sim"

// Clock abstracts the timeline the endpoints run on: the deterministic
// discrete-event engine (SimClock), or a wrapper around it such as the
// benchmark's timed clock, which attributes timer callbacks to the
// transport layer.
type Clock interface {
	// Now returns the current time on this clock's timeline.
	Now() sim.Time
	// NewTimer returns a stopped one-shot timer invoking fn on this
	// clock's event loop when it fires.
	NewTimer(fn func()) TimerHandle
}

// TimerHandle is a restartable one-shot timer (the subset of sim.Timer the
// transport needs).
type TimerHandle interface {
	Reset(at sim.Time)
	Stop()
	Armed() bool
}

// simClock adapts *sim.Engine to Clock.
type simClock struct {
	eng *sim.Engine
}

// SimClock wraps a discrete-event engine as a transport clock.
func SimClock(eng *sim.Engine) Clock { return simClock{eng: eng} }

func (c simClock) Now() sim.Time { return c.eng.Now() }

func (c simClock) NewTimer(fn func()) TimerHandle {
	return sim.NewTimer(c.eng, fn)
}

// rebindTimer moves an existing timer handle onto clk's timeline without
// allocating, when both sides support it (sim timers on a sim clock). It
// reports whether the rebind happened; on false the caller must create a
// fresh timer.
func rebindTimer(h TimerHandle, clk Clock) bool {
	t, ok := h.(*sim.Timer)
	if !ok {
		return false
	}
	sc, ok := clk.(simClock)
	if !ok {
		return false
	}
	t.Rebind(sc.eng)
	return true
}
