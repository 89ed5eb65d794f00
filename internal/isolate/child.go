package isolate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
)

// Child process exit codes. 0 means the protocol completed — even a trial
// that failed exits 0, with the failure inside the result frame; nonzero
// exits are reserved for crashes the protocol could not report.
const (
	// ExitProtocol: the child could not complete the stdin/stdout
	// protocol (bad spawn arguments, a stream that broke mid-session).
	ExitProtocol = 3
	// ExitMemExceeded: the memory self-check saw live heap beyond twice
	// the soft ceiling — the deterministic stand-in for a kernel OOM-kill,
	// fired before the machine starts swapping.
	ExitMemExceeded = 87
)

// ChildEnvMarker is set in every isolated child's environment. Test
// binaries use it to dispatch TestMain into ChildMain; the production
// binary dispatches on its hidden `_trial` argv instead.
const ChildEnvMarker = "QUICBENCH_TRIAL_CHILD"

// childArgs renders the supervision parameters the parent hands its child
// at spawn, as the last two argv words: the heartbeat period and the soft
// memory ceiling in bytes (0 = none).
func childArgs(heartbeat time.Duration, memLimit int64) []string {
	return []string{heartbeat.String(), strconv.FormatInt(memLimit, 10)}
}

// parseChildArgs reads childArgs back off the end of the child's argv.
func parseChildArgs(argv []string) (heartbeat time.Duration, memLimit int64, err error) {
	if len(argv) < 2 {
		return 0, 0, fmt.Errorf("too few arguments")
	}
	if heartbeat, err = time.ParseDuration(argv[len(argv)-2]); err != nil || heartbeat <= 0 {
		return 0, 0, fmt.Errorf("bad heartbeat period %q", argv[len(argv)-2])
	}
	if memLimit, err = strconv.ParseInt(argv[len(argv)-1], 10, 64); err != nil || memLimit < 0 {
		return 0, 0, fmt.Errorf("bad memory ceiling %q", argv[len(argv)-1])
	}
	return heartbeat, memLimit, nil
}

// ChildMain is the body of the hidden trial-child mode (`quicbench
// _trial`): a one-slot fabric worker on stdin/stdout. It applies the soft
// memory ceiling, serves the parent's one assignment through the same
// loop a TCP worker runs (dist.Worker.Serve: hello, heartbeats while the
// trial runs, panic recovery and classification, digest-stamped result),
// and exits when the parent says bye. argv is the process's arguments,
// whose tail carries the parent's childArgs; exec runs the trial. It
// returns the process exit code.
func ChildMain(argv []string, stdin io.ReadCloser, stdout io.Writer, exec dist.ExecFunc) int {
	heartbeat, memLimit, err := parseChildArgs(argv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "isolate child: want <heartbeat> <mem-limit-bytes> as the last two arguments: %v\n", err)
		return ExitProtocol
	}
	if memLimit > 0 {
		// Soft ceiling: the GC works hard to stay under it. The self-check
		// is the hard backstop for trials that allocate reachable memory
		// without bound, which no GC effort can contain.
		debug.SetMemoryLimit(memLimit)
		go memSelfCheck(memLimit)
	}
	w := &dist.Worker{
		HeartbeatInterval: heartbeat,
		// The wedge hook is the worker's blackhole: alive, executing, and
		// silent — no beat, no result — which is exactly what the parent's
		// heartbeat-stall reaper exists for.
		ChaosBlackhole: faults.Hook(faults.EnvWedge),
		Exec: func(ctx context.Context, key string, seed uint64, payload json.RawMessage) (json.RawMessage, error) {
			if faults.HookMatches(faults.EnvPanic, key) {
				panic("injected test panic (" + faults.EnvPanic + ")")
			}
			if faults.HookMatches(faults.EnvMemHog, key) {
				memHog()
			}
			return exec(ctx, key, seed, payload)
		},
	}
	stdio := struct {
		io.Reader
		io.Writer
		io.Closer
	}{stdin, stdout, stdin}
	// A parent that simply hangs up (EOF at a frame boundary) has decided
	// the session is over; only a stream that broke is the child's failure.
	if err := w.Serve(context.Background(), stdio); err != nil && err != io.EOF {
		fmt.Fprintf(os.Stderr, "isolate child: %v\n", err)
		return ExitProtocol
	}
	return 0
}

// memHog allocates reachable memory without bound — the injected memory
// blowout. It never returns; the self-check (or the kernel) ends it.
func memHog() {
	var hog [][]byte
	for {
		b := make([]byte, 8<<20)
		for i := range b {
			b[i] = byte(i) // touch every page so the heap is real
		}
		hog = append(hog, b)
		time.Sleep(2 * time.Millisecond)
	}
}

// memSelfCheck hard-kills the child once live heap passes twice the soft
// ceiling. At that point the GC has already lost: the ceiling is soft
// precisely because Go will exceed it to keep reachable memory alive, so
// a runaway trial must be stopped by exiting, not by collecting.
func memSelfCheck(limit int64) {
	for {
		time.Sleep(20 * time.Millisecond)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > uint64(2*limit) {
			fmt.Fprintf(os.Stderr, "isolate child: live heap %d B exceeds twice the soft ceiling %d B\n",
				ms.HeapAlloc, limit)
			os.Exit(ExitMemExceeded)
		}
	}
}
