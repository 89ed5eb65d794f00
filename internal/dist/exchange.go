package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/dist/frame"
	"repro/internal/runner"
)

// The coordinator half of one assignment, shared by the Coordinator (many
// workers, many assignments in flight per connection) and Exchange (one
// worker, one assignment, on a private stream).

// checkHello validates a hello's protocol identity, returning the typed
// bye that turns a mismatched peer away (nil when it speaks this protocol).
func checkHello(h helloMsg) *byeMsg {
	if h.Proto == protoName && h.Version == protoVersion {
		return nil
	}
	return &byeMsg{Code: byeProtoMismatch, Reason: fmt.Sprintf(
		"protocol mismatch: got %s/%d, want %s/%d", h.Proto, h.Version, protoName, protoVersion)}
}

// newAssign frames one trial attempt, stamping the digest of the payload
// bytes the worker must independently recompute in its result.
func newAssign(tr runner.Trial, attempt int, payload json.RawMessage) wireMsg {
	return wireMsg{Type: msgAssign, Assign: &assignMsg{
		Key: tr.Key, Seed: tr.Seed, Attempt: attempt, Payload: payload,
		SpecDigest: digestOf(payload),
	}}
}

// digestsVerify checks a result's integrity claims: the worker's spec
// digest must match the payload the coordinator actually sent, and the
// result digest must cover the result bytes that arrived.
func digestsVerify(payload json.RawMessage, res *resultMsg) bool {
	if res.SpecDigest != digestOf(payload) {
		return false
	}
	if res.Result != nil && res.ResultDigest != digestOf(res.Result) {
		return false
	}
	return true
}

// lowerResult lowers a worker's result message to the executor contract,
// whitelisting the failure kind so a panic or timeout classified on the
// far side journals exactly like one classified in-process.
func lowerResult(key string, attempt int, res *resultMsg) (json.RawMessage, *runner.TrialError) {
	if res.Err == "" {
		return res.Result, nil
	}
	kind := runner.FailKind(res.Kind)
	switch kind {
	case runner.FailPanic, runner.FailTimeout, runner.FailInterrupted, runner.FailError:
	default:
		kind = runner.FailError
	}
	return nil, &runner.TrialError{Key: key, Attempt: attempt, Kind: kind, Err: errors.New(res.Err)}
}

// Exchange runs one trial attempt on a worker reached over a private
// stream — the crash-isolation executor's pipe to its `quicbench _trial`
// child, a Worker.Serve on stdio: expect the hello, ship the assignment,
// call onBeat for every heartbeat while the trial runs, and return the
// digest-verified result lowered to the executor contract, ending the
// worker's campaign with a bye. err reports a stream that ended before a
// valid result: bare io.EOF when it simply closed at a frame boundary,
// otherwise an error matching ErrProtocol (a malformed frame, a peer
// speaking another protocol version, a result failing its digest check).
// Why the worker went away is the caller's to classify.
func Exchange(rw io.ReadWriter, tr runner.Trial, attempt int, payload json.RawMessage, onBeat func()) (json.RawMessage, *runner.TrialError, error) {
	m, err := readMsg(rw)
	if err != nil {
		return nil, nil, err
	}
	if m.Type != msgHello || m.Hello == nil {
		return nil, nil, fmt.Errorf("%w: first frame is %q, not a hello", ErrProtocol, m.Type)
	}
	if bye := checkHello(*m.Hello); bye != nil {
		_ = frame.Write(rw, wireMsg{Type: msgBye, Bye: bye}) // courtesy; the peer is turned away regardless
		return nil, nil, fmt.Errorf("%w: %s", ErrProtocol, bye.Reason)
	}
	// A write error means the worker is already gone; the read below
	// reports how its stream ended, which says more than the EPIPE would.
	_ = frame.Write(rw, newAssign(tr, attempt, payload))
	for {
		m, err := readMsg(rw)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case m.Type == msgBeat:
			onBeat()
		case m.Type == msgResult && m.Result != nil:
			if m.Result.Key != tr.Key || !digestsVerify(payload, m.Result) {
				return nil, nil, fmt.Errorf("%w: result for %q fails its key/digest check", ErrProtocol, m.Result.Key)
			}
			_ = frame.Write(rw, wireMsg{Type: msgBye, Bye: &byeMsg{Code: byeComplete, Reason: "trial complete"}})
			raw, terr := lowerResult(tr.Key, attempt, m.Result)
			return raw, terr, nil
		}
	}
}
