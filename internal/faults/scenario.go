package faults

import (
	"fmt"

	"repro/internal/sim"
)

// Window is a closed-open virtual-time interval [From, To).
type Window struct {
	From, To sim.Time
}

// Step is one timed action on a scenario timeline.
type Step struct {
	At    sim.Time
	Desc  string
	apply func()
}

// Scenario is a validated timeline of impairment events on the virtual
// clock — the emulator's equivalent of a pumba/tc-netem command sequence,
// such as blackout windows. Builder methods accumulate steps and record the first
// validation error; Install schedules everything on an engine and reports
// that error, so a malformed timeline never half-applies.
type Scenario struct {
	steps []Step
	err   error
}

// NewScenario returns an empty timeline.
func NewScenario() *Scenario { return &Scenario{} }

func (s *Scenario) fail(format string, args ...any) *Scenario {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
	return s
}

// At schedules an arbitrary action at virtual time at.
func (s *Scenario) At(at sim.Time, desc string, apply func()) *Scenario {
	if at < 0 {
		return s.fail("faults: scenario step %q at negative time %v", desc, at)
	}
	if apply == nil {
		return s.fail("faults: scenario step %q has nil action", desc)
	}
	s.steps = append(s.steps, Step{At: at, Desc: desc, apply: apply})
	return s
}

// Blackout takes the injector down for the window [from, to): every packet
// in the window is blackholed, modelling a total outage of the path.
func (s *Scenario) Blackout(in *Injector, w Window) *Scenario {
	if in == nil {
		return s.fail("faults: Blackout with nil injector")
	}
	if w.From < 0 || w.To <= w.From {
		return s.fail("faults: Blackout window [%v, %v) is not a positive interval", w.From, w.To)
	}
	s.At(w.From, fmt.Sprintf("blackout start @%v", w.From), func() { in.SetDown(true) })
	s.At(w.To, fmt.Sprintf("blackout end @%v", w.To), func() { in.SetDown(false) })
	return s
}

// Install schedules the whole timeline on eng. It refuses to schedule
// anything when a builder method recorded a validation error, or when a
// step lies in the engine's past.
func (s *Scenario) Install(eng *sim.Engine) error {
	if s.err != nil {
		return s.err
	}
	if eng == nil {
		return fmt.Errorf("faults: Install with nil engine")
	}
	for _, st := range s.steps {
		if st.At < eng.Now() {
			return fmt.Errorf("faults: scenario step %q at %v is in the past (now %v)", st.Desc, st.At, eng.Now())
		}
	}
	for _, st := range s.steps {
		eng.At(st.At, st.apply)
	}
	return nil
}
