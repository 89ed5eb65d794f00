package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// echoResult is a deterministic trial payload: a pure function of the
// trial's identity, computed identically by the in-process Run closure
// and the worker's Exec — the property the bit-identity tests rest on.
type echoResult struct {
	Key  string `json:"key"`
	Seed uint64 `json:"seed"`
	Val  uint64 `json:"val"`
}

func echo(key string, seed uint64) echoResult {
	return echoResult{Key: key, Seed: seed, Val: seed*6364136223846793005 + 1442695040888963407}
}

// echoSpec is the assignment payload; the fabric treats it as opaque.
type echoSpec struct {
	Key  string `json:"key"`
	Seed uint64 `json:"seed"`
}

func echoTrial(key string, seed uint64) runner.Trial {
	return runner.Trial{
		Key:  key,
		Seed: seed,
		Spec: echoSpec{Key: key, Seed: seed},
		Run: func(context.Context) (any, error) {
			return echo(key, seed), nil
		},
	}
}

func echoTrials(n int) []runner.Trial {
	out := make([]runner.Trial, n)
	for i := range out {
		out[i] = echoTrial(fmt.Sprintf("cell-%02d", i), uint64(i+1))
	}
	return out
}

// echoExec is the worker-side executor matching echoTrial's Run.
func echoExec(ctx context.Context, key string, seed uint64, payload json.RawMessage) (json.RawMessage, error) {
	var spec echoSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, err
	}
	return json.Marshal(echo(spec.Key, spec.Seed))
}

// startCoordinator listens on loopback and tears down via t.Cleanup.
func startCoordinator(t *testing.T, c *Coordinator) string {
	t.Helper()
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(c.Close)
	return addr
}

// startWorker runs w until the campaign ends, failing the test on an
// unexpected exit error. Returns a channel closed when Run returns. The
// worker can outlive the test by a moment (the coordinator's closing bye
// races the test's return), so its Logf is gated shut at cleanup — logging
// into a finished t panics the whole package.
func startWorker(t *testing.T, ctx context.Context, w *Worker, wantErr error) <-chan struct{} {
	t.Helper()
	if logf := w.Logf; logf != nil {
		var mu sync.RWMutex
		over := false
		w.Logf = func(format string, args ...any) {
			mu.RLock()
			defer mu.RUnlock()
			if !over {
				logf(format, args...)
			}
		}
		t.Cleanup(func() {
			mu.Lock()
			over = true
			mu.Unlock()
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := w.Run(ctx)
		if wantErr == nil && err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker %s: Run returned %v", w.Name, err)
		}
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Errorf("worker %s: Run returned %v, want %v", w.Name, err, wantErr)
		}
	}()
	return done
}

func waitFleet(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if got, ok := c.WaitWorkers(ctx, n); !ok {
		t.Fatalf("fleet never reached %d workers (have %d)", n, got)
	}
}

func TestFabricShardsAcrossWorkers(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w := &Worker{Addr: addr, Name: fmt.Sprintf("w%d", i), Slots: 2, Exec: echoExec,
			HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
		startWorker(t, ctx, w, nil)
	}
	waitFleet(t, coord, 3)

	trials := echoTrials(12)
	res, err := runner.Run(ctx, runner.Config{Workers: 4, Executor: coord}, trials)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rec := range res.Records {
		if rec.Outcome != runner.OutcomeOK || rec.Attempts != 1 {
			t.Errorf("record %d: outcome %s attempts %d", i, rec.Outcome, rec.Attempts)
		}
		want, _ := json.Marshal(echo(trials[i].Key, trials[i].Seed))
		if !bytes.Equal(rec.Result, want) {
			t.Errorf("record %d: result %s, want %s", i, rec.Result, want)
		}
	}
	st := coord.Stats()
	if st.RemoteTrials != 12 {
		t.Errorf("remote trials %d, want 12", st.RemoteTrials)
	}
	if st.LocalTrials != 0 {
		t.Errorf("local trials %d, want 0", st.LocalTrials)
	}
	if st.Deaths != 0 {
		t.Errorf("deaths %d, want 0", st.Deaths)
	}
}

func TestEmptyFleetDegradesToLocal(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf}
	startCoordinator(t, coord)

	res, err := runner.Run(context.Background(), runner.Config{Executor: coord}, echoTrials(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := res.Count(runner.OutcomeOK); n != 3 {
		t.Errorf("%d ok records, want 3", n)
	}
	st := coord.Stats()
	if st.LocalTrials != 3 || st.RemoteTrials != 0 {
		t.Errorf("local %d remote %d, want 3/0", st.LocalTrials, st.RemoteTrials)
	}
}

// A worker killed mid-trial (the kill -9 stand-in severs its connection
// and never returns) must cost nothing visible: the trial re-dispatches
// to a healthy worker and journals with Attempts == 1 — re-dispatch is
// internal to the fabric and never charges the supervisor's retry budget,
// which is what keeps the journal bit-identical to a single-process run.
func TestWorkerCrashRedispatchesWithoutChargingAttempts(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, HeartbeatTimeout: 2 * time.Second}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Names sort the victim first, so the least-inflight tiebreak hands it
	// the poisoned cell.
	victim := &Worker{Addr: addr, Name: "a-victim", Exec: echoExec, ChaosCrash: "cell-00",
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	healthy := &Worker{Addr: addr, Name: "b-healthy", Exec: echoExec,
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	victimDone := startWorker(t, ctx, victim, errChaosKilled)
	startWorker(t, ctx, healthy, nil)
	waitFleet(t, coord, 2)

	trials := echoTrials(4)
	res, err := runner.Run(ctx, runner.Config{Workers: 2, Executor: coord}, trials)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	<-victimDone
	for i, rec := range res.Records {
		if rec.Outcome != runner.OutcomeOK {
			t.Errorf("record %d (%s): outcome %s (%s)", i, rec.Key, rec.Outcome, rec.Err)
		}
		if rec.Attempts != 1 {
			t.Errorf("record %d (%s): %d attempts; a worker death must not charge the retry budget",
				i, rec.Key, rec.Attempts)
		}
	}
	st := coord.Stats()
	if st.Redispatches == 0 {
		t.Error("no re-dispatches recorded despite a worker crash")
	}
	if st.Deaths == 0 {
		t.Error("no deaths recorded despite a severed connection")
	}
}

// A black-holed worker keeps its connection open but sends nothing; only
// the wall-clock reaper can free its trials.
func TestBlackholedWorkerReaped(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, HeartbeatTimeout: 400 * time.Millisecond}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hole := &Worker{Addr: addr, Name: "a-hole", Exec: echoExec, ChaosBlackhole: "cell-00",
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	healthy := &Worker{Addr: addr, Name: "b-healthy", Exec: echoExec,
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	startWorker(t, ctx, hole, nil)
	startWorker(t, ctx, healthy, nil)
	waitFleet(t, coord, 2)

	trials := echoTrials(2)
	res, err := runner.Run(ctx, runner.Config{Workers: 2, Executor: coord}, trials)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rec := range res.Records {
		if rec.Outcome != runner.OutcomeOK || rec.Attempts != 1 {
			t.Errorf("record %d (%s): outcome %s attempts %d (%s)",
				i, rec.Key, rec.Outcome, rec.Attempts, rec.Err)
		}
	}
	if st := coord.Stats(); st.Deaths == 0 {
		t.Error("reaper never declared the black-holed worker dead")
	}
	cancel() // stop the hole's reconnect loop before the coordinator closes
}

// A drained worker finishes its in-flight trial, flushes the result, and
// departs cleanly — no death, no timeout classification, no lost work.
func TestWorkerDrainFinishesInflight(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slowExec := func(ctx context.Context, key string, seed uint64, payload json.RawMessage) (json.RawMessage, error) {
		once.Do(func() { close(started) })
		<-release
		return echoExec(ctx, key, seed, payload)
	}
	w := &Worker{Addr: addr, Name: "slow", Exec: slowExec,
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	done := startWorker(t, ctx, w, nil)
	waitFleet(t, coord, 1)

	var res *runner.SweepResult
	var rerr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		res, rerr = runner.Run(ctx, runner.Config{Executor: coord}, echoTrials(1))
	}()
	<-started
	w.Drain()
	// Hold the trial until the coordinator has seen the announcement, so
	// the drain really does land while the trial is mid-flight.
	for deadline := time.Now().Add(5 * time.Second); coord.Stats().Drains == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never saw the drain announcement")
		}
	}
	close(release)
	<-ran
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	rec := res.Records[0]
	if rec.Outcome != runner.OutcomeOK || rec.Attempts != 1 {
		t.Fatalf("drained trial: outcome %s attempts %d (%s)", rec.Outcome, rec.Attempts, rec.Err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker Run did not return after drain")
	}
	st := coord.Stats()
	if st.Deaths != 0 {
		t.Errorf("clean drain recorded %d deaths", st.Deaths)
	}
	if st.Drains != 1 {
		t.Errorf("drains %d, want 1", st.Drains)
	}
}

// The acceptance property: a distributed campaign whose coordinator was
// killed mid-write (journal cut after two records plus a torn half-line)
// and resumed on the fabric produces a journal byte-identical to an
// uninterrupted single-process run.
func TestDistributedResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	trials := func() []runner.Trial { return echoTrials(8) }

	// Reference: uninterrupted, single worker, in-process.
	ref := filepath.Join(dir, "ref.jsonl")
	if _, err := runner.RunCheckpointed(context.Background(),
		runner.Config{Workers: 1}, trials(), ref, false); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the kill -9: keep the header + two records, then half of
	// the third line (a crash mid-append leaves exactly this shape).
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	if len(lines) < 5 {
		t.Fatalf("reference journal too short: %d lines", len(lines))
	}
	var torn bytes.Buffer
	torn.Write(lines[0]) // header
	torn.Write(lines[1])
	torn.Write(lines[2])
	torn.Write(lines[3][:len(lines[3])/2]) // torn mid-record, no newline
	path := filepath.Join(dir, "dist.jsonl")
	if err := os.WriteFile(path, torn.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume on the fabric: coordinator + two workers, multi-worker pool,
	// ordered journal flushing.
	coord := &Coordinator{Logf: t.Logf}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := &Worker{Addr: addr, Name: fmt.Sprintf("w%d", i), Exec: echoExec,
			HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
		startWorker(t, ctx, w, nil)
	}
	waitFleet(t, coord, 2)

	res, err := runner.RunCheckpointed(ctx,
		runner.Config{Workers: 2, OrderedJournal: true, Executor: coord},
		trials(), path, true)
	if err != nil {
		t.Fatalf("resumed distributed run: %v", err)
	}
	if res.Reused != 2 {
		t.Errorf("resume reused %d records, want 2 (the intact prefix)", res.Reused)
	}
	if st := coord.Stats(); st.RemoteTrials == 0 {
		t.Error("resume executed nothing on the fleet")
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Errorf("distributed resumed journal differs from uninterrupted single-process run:\nwant %s\ngot  %s",
			refBytes, got)
	}
}

// A worker that starts before its coordinator exists must keep re-dialing
// with backoff and join once the listener appears.
func TestWorkerReconnectsWithBackoff(t *testing.T) {
	// Reserve an address, then close it so the first dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Addr: addr, Name: "early", Exec: echoExec,
		HeartbeatInterval: 50 * time.Millisecond,
		ReconnectBase:     20 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
		Logf: t.Logf}
	startWorker(t, ctx, w, nil)

	time.Sleep(100 * time.Millisecond) // let a few dials fail
	coord := &Coordinator{Logf: t.Logf}
	if _, err := coord.Listen(addr); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(coord.Close)
	waitFleet(t, coord, 1)

	res, err := runner.Run(ctx, runner.Config{Executor: coord}, echoTrials(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := res.Count(runner.OutcomeOK); n != 2 {
		t.Errorf("%d ok records, want 2", n)
	}
	if st := coord.Stats(); st.RemoteTrials != 2 {
		t.Errorf("remote trials %d, want 2", st.RemoteTrials)
	}
}

// A connection speaking the wrong protocol is turned away with a typed
// bye, and garbage is dropped without disturbing the fleet.
func TestHandshakeRejectsStrangers(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf}
	addr := startCoordinator(t, coord)

	// Wrong protocol version: the worker gets a bye and exits nil.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	out := &msgWriter{w: conn}
	if err := out.write(wireMsg{Type: msgHello, Hello: &helloMsg{
		Proto: protoName, Version: protoVersion + 1, Name: "future", Slots: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	if err != nil || m.Type != msgBye {
		t.Errorf("version mismatch: got (%v, %v), want a bye", m.Type, err)
	}
	conn.Close()

	// Garbage bytes: dropped without a registered worker.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn2.Close()

	time.Sleep(50 * time.Millisecond)
	if st := coord.Stats(); st.Joins != 0 || st.Workers != 0 {
		t.Errorf("strangers joined the fleet: %+v", st)
	}
}

// A worker from the retired protocol generation (hello version 2) gets the
// typed proto-mismatch bye naming both versions and is never registered;
// and a Worker that receives that bye returns ErrProtocol from Run — it
// does not re-dial under another version.
func TestProtoV2HelloRejected(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf}
	addr := startCoordinator(t, coord)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := &msgWriter{w: conn}
	if err := out.write(wireMsg{Type: msgHello, Hello: &helloMsg{
		Proto: protoName, Version: 2, Name: "legacy", Slots: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	if err != nil || m.Type != msgBye || m.Bye == nil {
		t.Fatalf("v2 hello: got (%v, %v), want a bye", m.Type, err)
	}
	if m.Bye.Code != byeProtoMismatch || !strings.Contains(m.Bye.Reason, "quicbench-dist/2") ||
		!strings.Contains(m.Bye.Reason, "quicbench-dist/3") {
		t.Errorf("v2 hello: bye %+v, want code %q naming both versions", m.Bye, byeProtoMismatch)
	}
	if st := coord.Stats(); st.Joins != 0 {
		t.Errorf("v2 worker joined the fleet: %+v", st)
	}

	// The worker side: a peer that answers every hello with that bye sees
	// exactly one dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			c, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			dials.Add(1)
			if _, rerr := readMsg(c); rerr == nil {
				_ = (&msgWriter{w: c}).write(wireMsg{Type: msgBye, Bye: m.Bye})
			}
			c.Close()
		}
	}()
	w := &Worker{Addr: ln.Addr().String(), Name: "modern", Exec: echoExec,
		ReconnectBase: 5 * time.Millisecond, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); !errors.Is(err, ErrProtocol) {
		t.Errorf("Run after a proto-mismatch bye returned %v, want ErrProtocol", err)
	}
	time.Sleep(50 * time.Millisecond) // several ReconnectBase periods: a re-dial would land
	if n := dials.Load(); n != 1 {
		t.Errorf("worker dialed %d times, want 1 (no downgrade re-dial)", n)
	}
}

// FleetStats exposes liveness rows for both connected and departed
// workers — the telemetry surface behind the status file's fleet section.
func TestFleetStatsLifecycle(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Addr: addr, Name: "observed", Exec: echoExec,
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	done := startWorker(t, ctx, w, nil)
	waitFleet(t, coord, 1)

	stats := coord.FleetStats()
	if len(stats) != 1 || stats[0].Name != "observed" || stats[0].State != "idle" {
		t.Fatalf("live fleet: %+v", stats)
	}

	w.Drain()
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats = coord.FleetStats()
		if len(stats) == 1 && stats[0].State == "drained" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("departed worker never showed as drained: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBeatPiggybackAggregates: worker metrics ride
// beats, land in the coordinator's per-worker cache, and merge into a
// fleet view whose trial counter matches the campaign's record count.
func TestBeatPiggybackAggregates(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, Metrics: telemetry.NewRegistry()}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	for i, reg := range regs {
		w := &Worker{Addr: addr, Name: []string{"wa", "wb"}[i], Slots: 2, Exec: echoExec,
			HeartbeatInterval: 20 * time.Millisecond, Logf: t.Logf, Metrics: reg}
		startWorker(t, ctx, w, nil)
	}
	waitFleet(t, coord, 2)

	trials := echoTrials(10)
	res, err := runner.Run(ctx, runner.Config{Workers: 4, Executor: coord}, trials)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("records = %d, want 10", len(res.Records))
	}

	// Post-result beats make the cache converge promptly; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var total int64
		for _, wm := range coord.FleetMetrics() {
			for _, s := range wm.Samples {
				if s.Name == "worker.trials_total" {
					total += s.Value
				}
			}
		}
		if total == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet-summed worker.trials_total = %d, want 10", total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Histograms merge exactly: fleet latency count equals trial count.
	var merged telemetry.HistogramSnapshot
	for _, wm := range coord.FleetMetrics() {
		for _, h := range wm.Hists {
			if h.Name == "worker.trial_latency_us" {
				merged = merged.Merge(h)
			}
		}
	}
	if merged.Count != 10 {
		t.Errorf("merged latency histogram count = %d, want 10", merged.Count)
	}
	if merged.Quantile(0.99) <= 0 {
		t.Errorf("merged p99 = %d, want > 0", merged.Quantile(0.99))
	}
}

// dialHello opens a raw connection to the coordinator and performs the
// worker handshake by hand, so tests can then misbehave on the wire.
func dialHello(t *testing.T, addr, name, token string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h := helloMsg{Proto: protoName, Version: protoVersion, Name: name, Slots: 1}
	if token != "" {
		if err := authenticate(token, &h); err != nil {
			t.Fatal(err)
		}
	}
	out := &msgWriter{w: conn}
	if err := out.write(wireMsg{Type: msgHello, Hello: &h}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// A registered worker that starts spewing garbage bytes is a worker
// fault: its connection drops, its trials re-dispatch, the campaign
// completes — and the corrupt-frame counter shows it. Regression for the
// read loop treating any malformed frame as a silent connection end.
func TestCorruptFrameIsWorkerFault(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, HeartbeatTimeout: time.Second}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One honest worker keeps the campaign runnable.
	good := &Worker{Addr: addr, Name: "w-good", Slots: 2, Exec: echoExec,
		HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf}
	startWorker(t, ctx, good, nil)
	waitFleet(t, coord, 1)

	// The garbage peer completes its handshake, then writes bytes that
	// parse as an implausible frame length.
	garbage := dialHello(t, addr, "w-garbage", "")
	waitFleet(t, coord, 2)
	if _, err := garbage.Write([]byte("THIS IS NOT A FRAME")); err != nil {
		t.Fatal(err)
	}

	trials := echoTrials(8)
	res, err := runner.Run(ctx, runner.Config{Workers: 2, Executor: coord}, trials)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Count(runner.OutcomeFailed) != 0 {
		t.Errorf("campaign had %d failed cells; a garbage worker must not fail trials", res.Count(runner.OutcomeFailed))
	}
	st := coord.Stats()
	if st.CorruptFrames == 0 {
		t.Error("corrupt-frame counter never incremented")
	}
	// The garbage peer must be out of the fleet; the honest worker stays.
	deadline := time.Now().Add(2 * time.Second)
	for coord.Stats().Workers != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := coord.Stats().Workers; got != 1 {
		t.Errorf("fleet has %d workers, want 1 (garbage peer dropped)", got)
	}
}

// Digest verification on the main dispatch path: a result claiming the
// wrong spec digest is refused and the trial re-dispatches (here, to
// local execution).
func TestSpecDigestMismatchRedispatches(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, HeartbeatTimeout: time.Second}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// A hand-rolled worker that answers every assignment with a result
	// whose spec digest is garbage.
	conn := dialHello(t, addr, "w-liar", "")
	out := &msgWriter{w: conn}
	go func() {
		for {
			m, err := readMsg(conn)
			if err != nil {
				return
			}
			if m.Type != msgAssign || m.Assign == nil {
				continue
			}
			raw, _ := json.Marshal(echo(m.Assign.Key, m.Assign.Seed))
			_ = out.write(wireMsg{Type: msgResult, Result: &resultMsg{
				Key: m.Assign.Key, Attempt: m.Assign.Attempt, Result: raw,
				SpecDigest: "forged", ResultDigest: digestOf(raw),
			}})
		}
	}()
	waitFleet(t, coord, 1)

	res, err := runner.Run(ctx, runner.Config{Workers: 1, Executor: coord}, echoTrials(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Count(runner.OutcomeFailed) != 0 {
		t.Errorf("campaign had %d failed cells; digest mismatches must re-dispatch, not fail", res.Count(runner.OutcomeFailed))
	}
	st := coord.Stats()
	if st.Divergences == 0 {
		t.Error("digest mismatch not counted as divergence")
	}
	if st.LocalTrials == 0 {
		t.Error("trials never fell back past the lying worker")
	}
}

// The shared-secret handshake: a worker with the right token joins, one
// with a missing or wrong token is turned away before dispatch with a
// typed ErrAuthFailed, and the rejection is counted.
func TestAuthTokenHandshake(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, AuthToken: "campaign-secret"}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	noToken := &Worker{Addr: addr, Name: "w-anon", Exec: echoExec, Logf: t.Logf}
	noDone := startWorker(t, ctx, noToken, ErrAuthFailed)
	wrong := &Worker{Addr: addr, Name: "w-wrong", Exec: echoExec, Logf: t.Logf,
		AuthToken: "guessed-secret"}
	wrongDone := startWorker(t, ctx, wrong, ErrAuthFailed)
	right := &Worker{Addr: addr, Name: "w-right", Exec: echoExec, Logf: t.Logf,
		AuthToken: "campaign-secret", HeartbeatInterval: 50 * time.Millisecond}
	startWorker(t, ctx, right, nil)

	for _, ch := range []<-chan struct{}{noDone, wrongDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("unauthenticated worker never exited")
		}
	}
	waitFleet(t, coord, 1)

	res, err := runner.Run(ctx, runner.Config{Workers: 2, Executor: coord}, echoTrials(4))
	if err != nil || res.Count(runner.OutcomeFailed) != 0 {
		t.Fatalf("authenticated campaign: res=%+v err=%v", res, err)
	}
	st := coord.Stats()
	if st.AuthFailures < 2 {
		t.Errorf("auth-failure counter = %d, want >= 2", st.AuthFailures)
	}
	if st.RemoteTrials == 0 {
		t.Error("authenticated worker executed nothing")
	}
}

// The admission allowlist: named workers join, unlisted ones are refused.
func TestWorkersAllowlist(t *testing.T) {
	coord := &Coordinator{Logf: t.Logf, Allowed: []string{"w-listed"}}
	addr := startCoordinator(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	listed := &Worker{Addr: addr, Name: "w-listed", Exec: echoExec, Logf: t.Logf,
		HeartbeatInterval: 50 * time.Millisecond}
	startWorker(t, ctx, listed, nil)
	intruder := &Worker{Addr: addr, Name: "w-intruder", Exec: echoExec, Logf: t.Logf}
	intruderDone := startWorker(t, ctx, intruder, ErrAuthFailed)

	select {
	case <-intruderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("unlisted worker never exited")
	}
	waitFleet(t, coord, 1)
	if st := coord.Stats(); st.AuthFailures == 0 {
		t.Error("allowlist rejection not counted")
	}
}
