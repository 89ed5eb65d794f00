package faults

import (
	"os"
	"strings"
)

// Fault hooks: environment variables that arm injected failures inside
// production code paths, so `make soak` and the fault tests can drive
// every failure class through the real code paths.
// Production runs never set them. Every name is declared here and every
// read goes through Hook — the only os.Getenv on a QUICBENCH_TEST_* name in
// the module (`make check` enforces it).
const (
	// EnvJournalENOSPC (a byte count): the checkpoint journal fails appends
	// with ENOSPC once that many bytes have been written past open,
	// delivering a torn partial line first — a disk filling up mid-append.
	EnvJournalENOSPC = "QUICBENCH_TEST_JOURNAL_ENOSPC"

	// Isolated-child hooks, matched as substrings against the trial key.
	// They fire only inside a `quicbench _trial` child, where dying is safe:
	// the parent must classify and survive each of them.
	//
	// EnvWedge: the child goes silent (no heartbeat, no result) while
	// staying alive; the parent's reaper must SIGKILL it and classify a
	// timeout.
	EnvWedge = "QUICBENCH_TEST_WEDGE"
	// EnvPanic: the trial panics; the child recovers and reports a typed
	// panic outcome.
	EnvPanic = "QUICBENCH_TEST_PANIC"
	// EnvMemHog: the trial allocates without bound; the soft memory
	// ceiling's self-check must kill the child.
	EnvMemHog = "QUICBENCH_TEST_MEMHOG"

	// Fabric worker hooks, matched as substrings against assignment keys.
	//
	// EnvDistCrash: the worker severs its connection without a drain the
	// moment a matching assignment arrives and stops for good — the
	// in-process stand-in for kill -9.
	EnvDistCrash = "QUICBENCH_TEST_DIST_CRASH"
	// EnvDistBlackhole: on a matching assignment the worker keeps the
	// connection open but stops sending anything (beats and results are
	// silently dropped) — a one-way partition only a wall-clock reaper can
	// detect.
	EnvDistBlackhole = "QUICBENCH_TEST_DIST_BLACKHOLE"
)

// Hook returns the value arming the named fault hook ("" when unarmed).
func Hook(name string) string { return os.Getenv(name) }

// HookMatches reports whether the named key-substring hook selects key.
func HookMatches(name, key string) bool {
	sub := Hook(name)
	return sub != "" && strings.Contains(key, sub)
}
