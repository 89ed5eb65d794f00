// Package live is the real-socket trial backend: it runs the conformance
// bench's transport endpoints over real UDP sockets on the loopback
// interface, through a userspace bottleneck relay (rate limit + droptail
// queue + propagation delay + seeded loss models), and implements the
// supervised runner's TrialExecutor seam so `quicbench live` and
// `sweep -live` drive the identical §3.1 methodology over a real network
// path — the in-vivo analogue of the paper's AWS experiments (§4.2).
//
// Real networks fail in ways the simulator never does, so the package is
// first a robustness layer: read loops retry transient socket errors with
// bounded exponential backoff and surface exhaustion as typed errors; a
// per-trial watchdog reaper kills trials whose relay stops moving
// datagrams or that overrun their wall-clock budget; rtclock scheduling
// skew and monotonicity violations surface as typed degradation warnings;
// and an environment that refuses sockets (EPERM, port exhaustion)
// degrades the executor to the simulator with an OnFallback notification,
// mirroring internal/isolate's fallback discipline. Every failure class
// maps onto runner.TrialError kinds through the same errors.Is chains the
// rest of the repo uses:
//
//	ErrRelayStall, ErrWallClock  → wrap faults.ErrDeadline → FailTimeout
//	ErrReadLoop, ErrTorndown     → FailError
//	core.ErrZeroThroughput       → FailError (drop storms, blackouts)
//	ErrSocket                    → never a TrialError: simulator fallback
//
// Seeded chaos hooks (QUICBENCH_TEST_LIVE_WEDGE/DROP/EPERM, matched
// against the stack under test like the isolate soak hooks) let CI
// exercise each class deterministically; see `make live-smoke`.
package live

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"

	"repro/internal/faults"
)

// Typed failure classes. Wrap sites add context with %w chains so
// errors.Is reaches both the class sentinel and, for deadline-shaped
// classes, faults.ErrDeadline (which is what runner.Classify keys on).
var (
	// ErrSocket marks a failure to open a UDP socket at trial setup —
	// EPERM in a sandbox, port/file-descriptor exhaustion. The executor
	// never turns it into a TrialError: the cell falls back to the
	// simulator (OnFallback observes the degradation).
	ErrSocket = errors.New("live: open UDP socket")
	// ErrReadLoop marks a read loop that exhausted its transient-error
	// retry budget — the typed replacement for the old example's
	// log.Printf-and-return give-up.
	ErrReadLoop = errors.New("live: read loop exhausted its retry budget")
	// ErrTorndown marks a socket that was closed under a read loop while
	// the trial was still running — teardown the trial did not order.
	ErrTorndown = errors.New("live: socket torn down mid-trial")
	// ErrRelayStall marks a trial killed by the watchdog because the
	// relay stopped moving datagrams — a wedged socket or a dead peer.
	// It wraps faults.ErrDeadline at its wrap site so the supervisor
	// classifies it FailTimeout, exactly like an isolate heartbeat stall.
	ErrRelayStall = errors.New("live: relay stalled")
	// ErrWallClock marks a trial killed by the watchdog for overrunning
	// its wall-clock budget; wraps faults.ErrDeadline like ErrRelayStall.
	ErrWallClock = errors.New("live: trial exceeded its wall-clock budget")
)

// Chaos carries the per-trial fault-injection switches derived from the
// environment hooks. The zero value is a healthy trial.
type Chaos struct {
	// Wedge stops the relay from reading its socket (watchdog food).
	Wedge bool
	// Drop discards every data datagram at the relay (ACKs pass).
	Drop bool
	// DenySockets makes every socket open fail with a synthetic EPERM.
	DenySockets bool
}

// chaosFor derives the trial's chaos switches from the live-backend fault
// hooks (faults.EnvLive*, which exist so `make live-smoke` can drive every
// failure class through the real executor): a hook whose value equals the
// stack under test fires for that cell.
func chaosFor(stack string) Chaos {
	return Chaos{
		Wedge:       faults.Hook(faults.EnvLiveWedge) == stack,
		Drop:        faults.Hook(faults.EnvLiveDrop) == stack,
		DenySockets: faults.Hook(faults.EnvLiveEPERM) == stack,
	}
}

// Warning is a typed degradation notice: the trial completed and its data
// was kept, but the real-time environment misbehaved in a way that may
// bias the measurements — the alternative to silently corrupt data.
type Warning struct {
	// Kind labels the degradation ("clock-skew", "now-regression").
	Kind string
	// Detail is the human-readable specifics.
	Detail string
}

func (w Warning) String() string { return fmt.Sprintf("live: %s: %s", w.Kind, w.Detail) }

// listenUDP opens a loopback UDP socket, classifying refusals as
// ErrSocket. deny injects the faults.EnvLiveEPERM hook's synthetic refusal.
func listenUDP(deny bool) (*net.UDPConn, error) {
	if deny {
		return nil, fmt.Errorf("%w: %w (injected by %s)", ErrSocket, syscall.EPERM, faults.EnvLiveEPERM)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSocket, err)
	}
	return conn, nil
}

// ReadLoopConfig tunes a socket read loop's deadline/retry discipline.
// The zero value selects the defaults.
type ReadLoopConfig struct {
	// Deadline bounds each blocking read so the loop can notice shutdown
	// on an idle socket (default 250 ms).
	Deadline time.Duration
	// MaxFailures is the consecutive transient-error budget before the
	// loop gives up with ErrReadLoop (default 8).
	MaxFailures int
	// BackoffBase is the first retry delay, doubling per consecutive
	// failure (default 1 ms).
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth (default 128 ms).
	BackoffCap time.Duration
}

func (c ReadLoopConfig) withDefaults() ReadLoopConfig {
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 128 * time.Millisecond
	}
	return c
}

// ReadSocket is the slice of *net.UDPConn the read loop needs — an
// interface so the retry/backoff/verdict discipline is testable against
// sockets that fail on command.
type ReadSocket interface {
	SetReadDeadline(t time.Time) error
	ReadFromUDP(b []byte) (int, *net.UDPAddr, error)
}

// ReadLoop pumps datagrams from conn into handle until done closes or the
// socket is closed. Deadline timeouts just re-check done; transient errors
// retry with exponential backoff up to the configured budget.
//
// The return value is the loop's typed verdict, shared by the relay, the
// endpoints, and examples/udplive (which used to log.Printf and give up):
//
//   - nil: orderly shutdown (done closed, or the socket closed after done)
//   - ErrTorndown: the socket closed while done was still open
//   - ErrReadLoop: MaxFailures consecutive transient errors (wraps the
//     last one, so errors.Is/As reach it)
func ReadLoop(conn ReadSocket, done <-chan struct{}, cfg ReadLoopConfig, handle func(buf []byte, n int)) error {
	cfg = cfg.withDefaults()
	buf := make([]byte, 2048)
	backoff := cfg.BackoffBase
	failures := 0
	for {
		select {
		case <-done:
			return nil
		default:
		}
		conn.SetReadDeadline(time.Now().Add(cfg.Deadline))
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				select {
				case <-done:
					return nil // teardown ordered the close
				default:
					return fmt.Errorf("%w: %w", ErrTorndown, err)
				}
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // idle socket: loop back to the done check
			}
			failures++
			if failures >= cfg.MaxFailures {
				return fmt.Errorf("%w (%d consecutive): %w", ErrReadLoop, failures, err)
			}
			select {
			case <-done:
				return nil
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > cfg.BackoffCap {
				backoff = cfg.BackoffCap
			}
			continue
		}
		failures = 0
		backoff = cfg.BackoffBase
		handle(buf, n)
	}
}
