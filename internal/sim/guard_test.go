package sim

import (
	"errors"
	"testing"
)

func TestGuardCadenceAndHalt(t *testing.T) {
	eng := New()
	var checks []uint64
	boom := errors.New("abort")
	eng.SetGuard(10, func(now Time, fired uint64) error {
		checks = append(checks, fired)
		if fired >= 30 {
			return boom
		}
		return nil
	})
	for i := 0; i < 100; i++ {
		eng.At(Time(i), func() {})
	}
	eng.Run()
	if !errors.Is(eng.Err(), boom) {
		t.Fatalf("Err() = %v, want the guard's error", eng.Err())
	}
	want := []uint64{10, 20, 30}
	if len(checks) != len(want) {
		t.Fatalf("guard ran at %v, want %v", checks, want)
	}
	for i := range want {
		if checks[i] != want[i] {
			t.Fatalf("guard ran at %v, want %v", checks, want)
		}
	}
	if eng.Fired() != 30 {
		t.Errorf("engine fired %d events after halt, want 30", eng.Fired())
	}
	if !eng.halted {
		t.Error("guard error did not halt the engine")
	}
}

func TestGuardNilRemoval(t *testing.T) {
	eng := New()
	eng.SetGuard(1, func(Time, uint64) error { return errors.New("always") })
	eng.SetGuard(0, nil)
	ran := false
	eng.At(0, func() { ran = true })
	eng.Run()
	if eng.Err() != nil || !ran {
		t.Fatalf("removed guard still active: err=%v ran=%v", eng.Err(), ran)
	}
}

func TestNewTimerEValidation(t *testing.T) {
	eng := New()
	for _, c := range []struct {
		name string
		eng  *Engine
		fn   func()
		want string
	}{
		{"nil engine", nil, func() {}, "sim: nil engine"},
		{"nil callback", eng, nil, "sim: nil timer callback"},
	} {
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("%s: recovered %v, want panic %q", c.name, r, c.want)
				}
			}()
			NewTimer(c.eng, c.fn)
		}()
	}
	if NewTimer(eng, func() {}).Armed() {
		t.Error("fresh timer reports armed")
	}
}

func TestNewTimerPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTimer(nil, nil) did not panic")
		}
	}()
	NewTimer(nil, nil)
}
