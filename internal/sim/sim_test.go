package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// pending counts the scheduled, non-cancelled events left in e's queue.
func pending(e *Engine) int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

func TestClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30*Millisecond, func() { order = append(order, 3) })
	e.At(10*Millisecond, func() { order = append(order, 1) })
	e.At(20*Millisecond, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := New()
	var seen Time
	e.At(42*Millisecond, func() { seen = e.Now() })
	e.Run()
	if seen != 42*Millisecond {
		t.Fatalf("callback saw clock %v, want 42ms", seen)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var seen Time
	e.At(10*Millisecond, func() {
		e.After(5*Millisecond, func() { seen = e.Now() })
	})
	e.Run()
	if seen != 15*Millisecond {
		t.Fatalf("After fired at %v, want 15ms", seen)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	e := New()
	fired := false
	e.At(10*Millisecond, func() {
		e.After(-5*Millisecond, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5*Millisecond, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil callback")
		}
	}()
	e.At(0, nil)
}

func TestCancelPreventsExecution(t *testing.T) {
	e := New()
	fired := false
	id := e.At(10*Millisecond, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for live event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelInvalidID(t *testing.T) {
	e := New()
	if e.Cancel(EventID{}) {
		t.Fatal("Cancel of zero EventID returned true")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(20 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 20*Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event lost: fired %d", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(100 * Millisecond)
	if e.Now() != 100*Millisecond {
		t.Fatalf("clock = %v, want 100ms", e.Now())
	}
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				e.halted = true
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("executed %d events after halting, want 3", count)
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	e := New()
	id := e.At(10*Millisecond, func() {})
	e.At(20*Millisecond, func() {})
	if got := pending(e); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	e.Cancel(id)
	if got := pending(e); got != 1 {
		t.Fatalf("pending after cancel = %d, want 1", got)
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i)*Millisecond, func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Fatal("Duration(1ms) != Millisecond")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Fatalf("Millis = %v, want 2.5", got)
	}
}

func TestTimerFiresOnce(t *testing.T) {
	e := New()
	count := 0
	tm := NewTimer(e, func() { count++ })
	tm.Reset(10 * Millisecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if tm.at != 10*Millisecond {
		t.Fatalf("deadline = %v", tm.at)
	}
	e.Run()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerResetReplacesDeadline(t *testing.T) {
	e := New()
	var firedAt []Time
	tm := NewTimer(e, func() { firedAt = append(firedAt, e.Now()) })
	tm.Reset(10 * Millisecond)
	tm.Reset(25 * Millisecond)
	e.Run()
	if len(firedAt) != 1 || firedAt[0] != 25*Millisecond {
		t.Fatalf("firedAt = %v, want [25ms]", firedAt)
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := NewTimer(e, func() { fired = true })
	tm.Reset(10 * Millisecond)
	tm.Stop()
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	// Stopping again must be harmless.
	tm.Stop()
}

func TestTimerResetAfter(t *testing.T) {
	e := New()
	var at Time
	tm := NewTimer(e, func() { at = e.Now() })
	e.At(5*Millisecond, func() { tm.Reset(e.Now() + 7*Millisecond) })
	e.Run()
	if at != 12*Millisecond {
		t.Fatalf("timer fired at %v, want 12ms", at)
	}
}

// Property: regardless of the insertion order of events, execution is in
// non-decreasing time order.
func TestPropEventsMonotone(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := New()
		var times []Time
		for _, off := range offsets {
			at := Time(off) * Microsecond
			e.At(at, func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving At and Cancel keeps only uncancelled events, and
// the clock never runs backwards.
func TestPropCancelSubset(t *testing.T) {
	f := func(offsets []uint16, cancelMask []bool) bool {
		e := New()
		fired := map[int]bool{}
		ids := make([]EventID, len(offsets))
		for i, off := range offsets {
			i := i
			ids[i] = e.At(Time(off)*Microsecond, func() { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := range offsets {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := range offsets {
			if cancelled[i] && fired[i] {
				return false
			}
			if !cancelled[i] && !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%100)*Microsecond, func() {})
		e.Step()
	}
}

func TestCancelAfterFireIsStale(t *testing.T) {
	e := New()
	fired := 0
	id := e.At(10*Millisecond, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The event slot is recycled; a stale ID must neither cancel nor
	// report valid.
	if e.Cancel(id) {
		t.Fatal("Cancel of a fired event returned true")
	}
	if id.ev.gen == id.gen && !id.ev.dead {
		t.Fatal("EventID still valid after firing")
	}
	// Recycle the slot with a fresh event: the stale ID must not be able
	// to cancel the newcomer.
	e.At(20*Millisecond, func() { fired++ })
	if e.Cancel(id) {
		t.Fatal("stale ID cancelled a recycled event")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("recycled event did not fire: fired = %d", fired)
	}
}

// Regression: an event cancelling a later event of the same instant must
// prevent it from firing, also under the batched dispatch used by Run.
func TestCancelWithinSameInstantBatch(t *testing.T) {
	e := New()
	var order []int
	var second EventID
	e.At(5*Millisecond, func() {
		order = append(order, 1)
		e.Cancel(second)
	})
	second = e.At(5*Millisecond, func() { order = append(order, 2) })
	e.At(5*Millisecond, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

// Scheduling at the current instant from inside a callback joins the same
// dispatch instant, after all previously scheduled events of that instant.
func TestScheduleAtNowDuringBatch(t *testing.T) {
	e := New()
	var order []int
	e.At(5*Millisecond, func() {
		order = append(order, 1)
		e.After(0, func() { order = append(order, 9) })
	})
	e.At(5*Millisecond, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Halt from inside a same-instant batch leaves the unfired remainder
// queued, exactly as step-by-step dispatch would.
func TestHaltMidBatchPreservesRemainder(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 5; i++ {
		e.At(5*Millisecond, func() {
			count++
			if count == 2 {
				e.halted = true
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("fired %d events after halting, want 2", count)
	}
	if got := pending(e); got != 3 {
		t.Fatalf("pending after mid-batch halt = %d, want 3", got)
	}
}

// The pool must keep steady-state scheduling allocation-free.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := New()
	// Warm the pool.
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Microsecond, func() {})
	}
	e.Run()
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		e.After(10*Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %v per op, want 0", allocs)
	}
}

// Property: batched Run and step-by-step dispatch observe identical
// execution orders, including tombstones and same-instant ties.
func TestPropBatchedRunMatchesStepwise(t *testing.T) {
	run := func(offsets []uint8, cancelMask []bool, stepwise bool) []int {
		e := New()
		var order []int
		ids := make([]EventID, len(offsets))
		for i, off := range offsets {
			i := i
			// Coarse timestamps force heavy same-instant batching.
			ids[i] = e.At(Time(off%8)*Millisecond, func() { order = append(order, i) })
		}
		for i := range offsets {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(ids[i])
			}
		}
		if stepwise {
			for e.Step() {
			}
		} else {
			e.Run()
		}
		return order
	}
	f := func(offsets []uint8, cancelMask []bool) bool {
		a := run(offsets, cancelMask, false)
		b := run(offsets, cancelMask, true)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineSameInstantBatch(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 16 {
		at := e.Now() + Microsecond
		for j := 0; j < 16; j++ {
			e.At(at, fn)
		}
		e.RunUntil(at)
	}
}

func BenchmarkEngineCancel(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.After(Microsecond, fn)
		e.Cancel(id)
		if i%1024 == 1023 {
			e.Run() // drain tombstones
		}
	}
}
