// Package dist is the distributed sweep fabric: a coordinator that
// shards supervised trials across TCP-connected workers, speaking a
// hello/assign/beat/result/drain/bye protocol over length-prefixed JSON
// frames (internal/dist/frame). The crash-isolation layer's child is the
// same worker on a stdio pipe (Worker.Serve), driven by its parent through
// Exchange.
//
// The coordinator sits behind the runner.TrialExecutor seam, so the
// existing supervisor owns retries, journaling, and interruption exactly
// as it does for in-process and child-process execution; the fabric only
// decides *where* an attempt runs. Workers heartbeat over their
// connection; a wall-clock reaper declares silent workers dead and their
// in-flight trials are re-dispatched to healthy workers without charging
// the trial's retry budget. When the fleet is empty the coordinator
// degrades gracefully to local execution, and workers reconnect with
// exponential backoff when the coordinator goes away — a coordinator
// crash plus --resume replays the journal and finishes the campaign
// bit-identically to an uninterrupted single-process run.
package dist

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/dist/frame"
	"repro/internal/telemetry"
)

// Protocol identity, validated in the hello handshake so a worker from a
// different build generation never silently exchanges trials: result-
// integrity digests on assign/result, the optional shared-secret HMAC on
// hello, the metric snapshot piggybacked on beat frames. One version is
// spoken; a hello carrying any other gets the typed proto-mismatch bye.
const (
	protoName    = "quicbench-dist"
	protoVersion = 3
)

// Message types on the coordinator/worker connection.
const (
	// msgHello (worker -> coordinator): identity and capacity; the first
	// frame on every connection.
	msgHello = "hello"
	// msgAssign (coordinator -> worker): one trial attempt to execute.
	msgAssign = "assign"
	// msgResult (worker -> coordinator): the outcome of an assignment.
	msgResult = "result"
	// msgBeat (worker -> coordinator): liveness heartbeat.
	msgBeat = "beat"
	// msgDrain (worker -> coordinator): the worker is shutting down
	// cleanly; listed assignments are returned unexecuted, in-flight
	// ones will still produce results before the connection closes.
	msgDrain = "drain"
	// msgBye (coordinator -> worker): the campaign is over; the worker
	// exits instead of reconnecting.
	msgBye = "bye"
)

// ErrProtocol marks a connection that is not speaking this fabric's
// protocol (bad hello, wrong version, malformed frame).
var ErrProtocol = errors.New("dist: protocol error")

// ErrAuthFailed marks a peer rejected by the shared-secret handshake: a
// missing or wrong -auth-token. The peer is dropped before any trial is
// dispatched.
var ErrAuthFailed = errors.New("dist: authentication failed")

// Bye codes: machine-readable reasons a coordinator ends a worker's
// campaign, so the worker can exit with a typed error instead of parsing
// prose.
const (
	byeComplete      = "complete"
	byeAuthFailed    = "auth-failed"
	byeNotAllowed    = "not-allowed"
	byeProtoMismatch = "proto-mismatch"
)

// helloMsg introduces a worker: protocol identity, a display name for
// fleet telemetry, and how many trials it runs in parallel. When the
// fabric runs with a shared secret, Nonce is a random value and MAC an
// HMAC-SHA256 over the hello's identity fields plus that nonce, proving
// the worker holds the token without putting it on the wire.
type helloMsg struct {
	Proto   string `json:"proto"`
	Version int    `json:"version"`
	Name    string `json:"name"`
	Slots   int    `json:"slots"`
	Nonce   string `json:"nonce,omitempty"`
	MAC     string `json:"mac,omitempty"`
}

// helloMAC computes the shared-secret HMAC binding a hello's identity
// fields together under token.
func helloMAC(token string, h helloMsg) string {
	mac := hmac.New(sha256.New, []byte(token))
	fmt.Fprintf(mac, "%s|%d|%s|%d|%s", h.Proto, h.Version, h.Name, h.Slots, h.Nonce)
	return hex.EncodeToString(mac.Sum(nil))
}

// authenticate stamps a hello with a fresh nonce and its MAC.
func authenticate(token string, h *helloMsg) error {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("dist: auth nonce: %w", err)
	}
	h.Nonce = hex.EncodeToString(nonce[:])
	h.MAC = helloMAC(token, *h)
	return nil
}

// verifyHello checks a hello's MAC against token. Constant-time compare,
// and a hello with no MAC at all fails.
func verifyHello(token string, h helloMsg) bool {
	if h.MAC == "" {
		return false
	}
	want := helloMAC(token, helloMsg{Proto: h.Proto, Version: h.Version, Name: h.Name, Slots: h.Slots, Nonce: h.Nonce})
	return hmac.Equal([]byte(h.MAC), []byte(want))
}

// digestOf is the fabric's canonical content digest (FNV-1a 64, fixed
// width hex): cheap, deterministic across platforms, and — combined with
// the frame layer's CRC — enough to pin a result to the exact spec bytes
// it answered. It is an integrity check against bugs and bit rot, not a
// cryptographic commitment.
func digestOf(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// assignMsg is one trial attempt. Payload is the domain spec (for sweeps
// a marshalled core.CellTrialSpec), opaque to the fabric; SpecDigest is
// the coordinator's digest of those payload bytes, which the worker must
// independently recompute in its result.
type assignMsg struct {
	Key        string          `json:"key"`
	Seed       uint64          `json:"seed"`
	Attempt    int             `json:"attempt"`
	Payload    json.RawMessage `json:"payload"`
	SpecDigest string          `json:"spec_digest,omitempty"`
}

// resultMsg reports an assignment's outcome. Exactly one of Result or
// Err is set; Kind carries the worker-side failure classification
// (runner.FailKind) so a panic recovered on a worker journals the same
// way as one recovered in-process. SpecDigest is the worker's own digest
// of the payload it executed and ResultDigest its digest of the result
// bytes — the coordinator verifies both, so a cross-wired or stale answer
// never silently lands in the journal.
type resultMsg struct {
	Key          string          `json:"key"`
	Attempt      int             `json:"attempt"`
	Result       json.RawMessage `json:"result,omitempty"`
	Err          string          `json:"err,omitempty"`
	Kind         string          `json:"kind,omitempty"`
	SpecDigest   string          `json:"spec_digest,omitempty"`
	ResultDigest string          `json:"result_digest,omitempty"`
}

// beatMsg is the optional payload on a liveness heartbeat: the worker's
// registry snapshot — scalar samples plus full histogram
// bucket data, so the coordinator can merge distributions exactly
// instead of summing quantiles. Workers send it on every heartbeat and
// immediately after each result, so fleet-aggregated counters converge
// with the journal rather than lagging a beat period behind.
type beatMsg struct {
	Samples []telemetry.Sample            `json:"samples,omitempty"`
	Hists   []telemetry.HistogramSnapshot `json:"hists,omitempty"`
}

// drainMsg announces a clean worker shutdown; Keys lists assignments the
// worker is handing back unexecuted.
type drainMsg struct {
	Keys []string `json:"keys,omitempty"`
}

// byeMsg ends a worker's campaign: a machine-readable Code (one of the
// bye* constants) plus a human reason.
type byeMsg struct {
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// wireMsg is one frame on the coordinator/worker connection.
type wireMsg struct {
	Type   string     `json:"type"`
	Hello  *helloMsg  `json:"hello,omitempty"`
	Assign *assignMsg `json:"assign,omitempty"`
	Result *resultMsg `json:"result,omitempty"`
	Beat   *beatMsg   `json:"beat,omitempty"`
	Drain  *drainMsg  `json:"drain,omitempty"`
	Bye    *byeMsg    `json:"bye,omitempty"`
}

// readMsg reads one fabric message. io.EOF at a frame boundary is
// returned verbatim; malformed frames match ErrProtocol (wrapping the
// frame layer's typed error).
func readMsg(r io.Reader) (wireMsg, error) {
	var m wireMsg
	if err := frame.Read(r, &m); err != nil {
		if err == io.EOF {
			return wireMsg{}, io.EOF
		}
		// Double-wrap so callers can match both the fabric-level sentinel
		// and the frame layer's typed cause (oversize vs checksum vs torn).
		return wireMsg{}, fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return m, nil
}

// msgWriter serializes frame writes on a shared connection (heartbeats
// vs. results on the worker, assigns vs. bye on the coordinator).
type msgWriter struct {
	mu sync.Mutex
	w  io.Writer
	// drop silences the writer — the connection-black-hole chaos hook:
	// frames are accepted and discarded, the peer hears nothing.
	drop bool
}

func (mw *msgWriter) write(m wireMsg) error {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	if mw.drop {
		return nil
	}
	return frame.Write(mw.w, m)
}

func (mw *msgWriter) blackhole() {
	mw.mu.Lock()
	mw.drop = true
	mw.mu.Unlock()
}
