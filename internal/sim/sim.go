// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock measured in nanoseconds and a binary-heap
// event queue. Components schedule callbacks at absolute or relative virtual
// times; the engine fires them in non-decreasing time order, breaking ties by
// scheduling order so that runs are fully deterministic.
//
// The engine is built for throughput — every experiment in the repository
// bottoms out in this loop, so sweep wall-clock time is dominated by it:
//
//   - events live on a free list, so steady-state scheduling does not
//     allocate (the pool grows to the peak number of pending events and is
//     reused from there);
//   - cancellation is O(1) tombstoning — the heap is never re-fixed, dead
//     events are discarded lazily when they surface;
//   - the heap is hand-rolled over the (at, seq) key, avoiding
//     container/heap's interface dispatch on every sift step;
//   - Run and RunUntil dispatch same-timestamp events as one batch, keeping
//     the pop/fire loop tight across the bursts produced by quantized
//     timers and back-to-back link deliveries.
//
// Everything in the repository that needs time — links, pacing, loss-detection
// timers, measurement sampling — runs on top of this engine, which replaces
// the paper's physical testbed clock.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to simulator time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String implements fmt.Stringer.
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// event is one scheduled callback. Events are pooled: once an event has
// fired (or its tombstone has been discarded) it returns to the engine's
// free list and its generation advances, so any EventID still pointing at
// it goes stale instead of touching the recycled slot.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
	// afn/arg is the allocation-free callback form (AtArg): hot paths that
	// would otherwise close over one value per event pass a long-lived
	// func(any) plus the value instead. Exactly one of fn and afn is set.
	afn  func(any)
	arg  any
	gen  uint64 // incremented on recycle; validates EventIDs
	dead bool   // cancelled (tombstone awaiting lazy removal)
}

// before reports whether a orders strictly before b under the (at, seq)
// dispatch key.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation loop. The zero value is ready to
// use. Engine is not safe for concurrent use; a simulation runs on a single
// goroutine by design.
type Engine struct {
	now    Time
	queue  []*event // binary min-heap ordered by (at, seq)
	free   []*event // event pool: recycled, generation-advanced events
	slab   []event  // bulk-allocated backing for fresh events (see alloc)
	batch  []*event // scratch for same-timestamp batch dispatch
	seq    uint64
	fired  uint64
	halted bool
	// pendingHigh tracks the peak event-queue length (including tombstoned
	// cancellations) for telemetry.
	pendingHigh int

	guard      Guard
	guardEvery uint64
	err        error
}

// heapPush inserts ev, sifting it up with inlined comparisons.
func (e *Engine) heapPush(ev *event) {
	q := append(e.queue, ev)
	if len(q) > e.pendingHigh {
		e.pendingHigh = len(q)
	}
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if before(p, ev) {
			break
		}
		q[i] = p
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// heapPop removes and returns the minimum event. The caller must ensure the
// queue is non-empty.
func (e *Engine) heapPop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.queue = q
	if n > 0 {
		// Sift the displaced last element down from the root.
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m, c := l, q[l]
			if r := l + 1; r < n && before(q[r], c) {
				m, c = r, q[r]
			}
			if before(last, c) {
				break
			}
			q[i] = c
			i = m
		}
		q[i] = last
	}
	return top
}

// alloc takes an event from the free list, or carves one from the current
// slab. Slab allocation keeps pool growth to one heap allocation per 256
// events instead of one each — the growth phase of a large simulation
// (thousands of pending events) stops dominating its allocation profile.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, 256)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// release returns ev to the free list. Advancing the generation invalidates
// every outstanding EventID for it; dropping fn releases the closure.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.dead = false
	ev.gen++
	e.free = append(e.free, ev)
}

// Guard inspects engine progress and may abort the run by returning a
// non-nil error. It is invoked from Step every N fired events (see
// SetGuard), so it observes the simulation without scheduling events —
// installing a guard never perturbs event ordering or results.
type Guard func(now Time, fired uint64) error

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed, useful for
// instrumentation and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// PendingHighwater returns the peak event-queue length observed since the
// engine was created (cancelled tombstones included while queued).
func (e *Engine) PendingHighwater() int { return e.pendingHigh }

// SetGuard installs g, invoked after every `every` fired events (every ==
// 0 selects a default of 65536). When the guard returns an error the engine
// halts and the error is available from Err. Passing a nil guard removes
// any installed guard.
func (e *Engine) SetGuard(every uint64, g Guard) {
	if every == 0 {
		every = 65536
	}
	e.guard = g
	e.guardEvery = every
}

// Err returns the error recorded by an aborting guard, or nil when the run
// is healthy.
func (e *Engine) Err() error { return e.err }

// EventID identifies a scheduled event so that it can be cancelled. The
// zero EventID is invalid. IDs are generation-checked: once the event has
// fired or been discarded (and its slot recycled), the ID goes stale and
// Cancel on it is a no-op.
type EventID struct {
	ev  *event
	gen uint64
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.heapPush(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// AtArg schedules fn(arg) at absolute virtual time t. It behaves exactly
// like At — same ordering key, same cancellation semantics — but the
// callback and its argument travel separately, so a hot path scheduling
// one event per packet can reuse a single long-lived func(any) instead of
// allocating a fresh closure each time.
func (e *Engine) AtArg(t Time, fn func(any), arg any) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.afn = fn
	ev.arg = arg
	e.seq++
	e.heapPush(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. Negative d is
// treated as 0.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel revokes a previously scheduled event in O(1) by tombstoning it:
// the heap is untouched and the dead event is discarded lazily when it
// surfaces at the root. Cancelling an event that already fired (or was
// already cancelled) is a no-op. It returns whether the event was actually
// revoked.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// fire executes one popped live event with the bookkeeping every dispatch
// path shares: clock advance, fired accounting, and the periodic guard.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.fired++
	// Invalidate outstanding EventIDs before the callback runs, so a
	// Cancel of the firing event from inside its own callback is the same
	// no-op it was when the heap tracked popped indices.
	ev.gen++
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.dead = false
	e.free = append(e.free, ev)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	if e.guard != nil && e.fired%e.guardEvery == 0 {
		if err := e.guard(e.now, e.fired); err != nil {
			e.err = err
			e.halted = true
		}
	}
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed (false when the queue is empty
// or the engine was halted).
func (e *Engine) Step() bool {
	for len(e.queue) > 0 && !e.halted {
		ev := e.heapPop()
		if ev.dead {
			e.release(ev)
			continue
		}
		e.fire(ev)
		return true
	}
	return false
}

// dispatchBatch pops the full run of live events sharing the earliest
// timestamp and fires them back to back — one tight loop per instant
// instead of one Step round-trip per event. Newly scheduled events at the
// same instant (higher seq) land in the heap and join the next batch, which
// preserves exact FIFO order. If the engine halts mid-batch (Halt or an
// aborting guard), the unfired remainder is pushed back with its original
// (at, seq) keys, leaving the queue exactly as a Step-by-Step run would.
// It reports whether any event fired.
func (e *Engine) dispatchBatch(deadline Time, bounded bool) bool {
	// Find the first live event.
	var head *event
	for len(e.queue) > 0 {
		ev := e.heapPop()
		if ev.dead {
			e.release(ev)
			continue
		}
		head = ev
		break
	}
	if head == nil {
		return false
	}
	if bounded && head.at > deadline {
		e.heapPush(head) // beyond the horizon: leave it queued
		return false
	}
	// Collect the rest of the instant.
	at := head.at
	batch := append(e.batch[:0], head)
	for len(e.queue) > 0 && e.queue[0].at == at {
		ev := e.heapPop()
		if ev.dead {
			e.release(ev)
			continue
		}
		batch = append(batch, ev)
	}
	fired := false
	for i, ev := range batch {
		if e.halted {
			// Restore the unfired tail; original seqs keep the order.
			for _, rest := range batch[i:] {
				e.heapPush(rest)
			}
			break
		}
		if ev.dead {
			// Cancelled by an earlier event of the same instant, after the
			// batch was collected.
			e.release(ev)
			continue
		}
		e.fire(ev)
		fired = true
	}
	// Events were either fired (released in fire) or re-pushed; drop the
	// stale pointers so the pool owns them exclusively.
	for i := range batch {
		batch[i] = nil
	}
	e.batch = batch[:0]
	return fired
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	for !e.halted && e.dispatchBatch(0, false) {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for !e.halted && e.dispatchBatch(deadline, true) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Timer is a restartable one-shot timer bound to an engine, analogous to
// time.Timer but virtual. The zero value is unusable; create timers with
// NewTimer.
type Timer struct {
	eng  *Engine
	fn   func()
	fire func() // pre-bound dispatch closure, built once in NewTimer
	id   EventID
	at   Time
	set  bool
}

// NewTimer returns a stopped timer that will invoke fn when it fires. A nil
// engine or callback is a programming error and panics.
func NewTimer(eng *Engine, fn func()) *Timer {
	if eng == nil {
		panic("sim: nil engine")
	}
	if fn == nil {
		panic("sim: nil timer callback")
	}
	t := &Timer{eng: eng, fn: fn}
	t.fire = func() {
		t.set = false
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire at absolute time t, replacing any
// previously armed deadline. Re-arming reuses the timer's pre-bound
// dispatch closure, so a timer that resets on every ACK never allocates.
func (t *Timer) Reset(at Time) {
	t.Stop()
	t.at = at
	t.set = true
	t.id = t.eng.At(at, t.fire)
}

// Stop disarms the timer if armed.
func (t *Timer) Stop() {
	if t.set {
		t.eng.Cancel(t.id)
		t.set = false
	}
}

// Rebind moves the timer onto a different engine, keeping its callback and
// pre-bound dispatch closure. The timer is disarmed in the process. This
// exists so pools can recycle timer-owning components (transport endpoints)
// across simulation runs without re-allocating their timers.
func (t *Timer) Rebind(eng *Engine) {
	t.Stop()
	t.eng = eng
	t.id = EventID{}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.set }
