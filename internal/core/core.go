// Package core is the measurement engine of the reproduction — the
// equivalent of the paper's QUICBench tool. It orchestrates two-flow
// experiments on the emulated dumbbell, extracts the delay/throughput
// samples (§3.1), and combines them with the Performance Envelope
// machinery (internal/pe) into conformance reports, bandwidth-share
// matrices, and parameter sweeps.
//
// Conformance procedure (§3.1): the *test* envelope is built from the test
// implementation's samples while it competes against the kernel reference
// of the same CCA; the *reference* envelope is built from a kernel flow's
// samples while it competes against another kernel flow. Five trials each,
// differentiated by small per-packet jitter and a randomized start offset.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Typed trial failures. Watchdog aborts additionally match
// faults.ErrRunaway / faults.ErrStalled via errors.Is.
var (
	// ErrZeroThroughput marks a trial in which a flow moved no data inside
	// the measurement window — a degenerate run (e.g. a blackout covering
	// the whole trial) whose samples would poison the envelope machinery.
	ErrZeroThroughput = errors.New("core: flow achieved zero throughput in the measurement window")
	// ErrUnknownStack marks a stack name absent from the registry, reported
	// by SpecE (Spec keeps panicking for compat, with an error value that
	// wraps this sentinel).
	ErrUnknownStack = errors.New("core: unknown stack")
)

// Network describes one experiment configuration from the §4 grid.
type Network struct {
	// BandwidthMbps is the bottleneck capacity (paper: 20 and 100).
	BandwidthMbps float64
	// RTT is the base round-trip time (paper: 10 ms and 50 ms).
	RTT sim.Time
	// BufferBDP is the droptail buffer in BDP multiples
	// (paper: 0.5, 1, 3, 5).
	BufferBDP float64
	// Duration is the flow runtime (paper: 120 s).
	Duration sim.Time
	// Trials is the number of repetitions (paper: 5).
	Trials int
	// Seed drives all experiment randomness.
	Seed uint64
	// Wild enables the §4.2 Internet-path emulation: heavier per-packet
	// jitter and per-trial base-RTT perturbation, as seen from AWS.
	Wild bool
}

// withDefaults fills the paper's defaults.
func (n Network) withDefaults() Network {
	if n.BandwidthMbps == 0 {
		n.BandwidthMbps = 20
	}
	if n.RTT == 0 {
		n.RTT = 10 * sim.Millisecond
	}
	if n.BufferBDP == 0 {
		n.BufferBDP = 1
	}
	if n.Duration == 0 {
		n.Duration = 120 * sim.Second
	}
	if n.Trials == 0 {
		n.Trials = 5
	}
	return n
}

// WithDefaults returns the configuration with the paper's defaults
// filled in — the exported form for callers outside core (the benchmark's
// recomposed trials) that must shape their networks exactly like the
// simulator does.
func (n Network) WithDefaults() Network { return n.withDefaults() }

// String summarizes the configuration ("20Mbps/10ms/1.0BDP").
func (n Network) String() string {
	return fmt.Sprintf("%.0fMbps/%.0fms/%.1fBDP", n.BandwidthMbps, n.RTT.Millis(), n.BufferBDP)
}

// reorderProb returns the out-of-order delivery probability: a small
// baseline on the testbed, larger on Internet paths.
func reorderProb(n Network) float64 {
	if n.Wild {
		return 0.001
	}
	return 0 // the paper's wired testbed delivers in order
}

// serializationTime returns how long `bytes` take on a link of the given
// rate.
func serializationTime(bytes int, mbps float64) sim.Time {
	return sim.Time(float64(bytes*8) / (mbps * 1e6) * float64(sim.Second))
}

// Flow specifies one endpoint implementation.
type Flow struct {
	Stack *stacks.Stack
	CCA   stacks.CCA
}

// Spec builds a Flow from a registry stack name, panicking on unknown
// stacks (registry names are compile-time constants in callers). The panic
// value is an error wrapping ErrUnknownStack so recover paths can match it;
// code handling user-supplied names should call SpecE instead.
func Spec(stack string, cca stacks.CCA) Flow {
	f, err := SpecE(stack, cca)
	if err != nil {
		panic(err)
	}
	return f
}

// SpecE is Spec with the unknown-stack case reported as a typed error
// (ErrUnknownStack) instead of a panic, for the RunTrialE/supervised paths
// where stack names arrive from flags or journals rather than constants.
func SpecE(stack string, cca stacks.CCA) (Flow, error) {
	s := stacks.Get(stack)
	if s == nil {
		return Flow{}, fmt.Errorf("%w %q", ErrUnknownStack, stack)
	}
	return Flow{Stack: s, CCA: cca}, nil
}

// TrialResult carries one trial's measurements for both flows.
type TrialResult struct {
	// Traces are the raw per-flow measurement records; index 0 is flow A.
	Traces [2]*metrics.FlowTrace
	// MeanMbps is the truncated-window mean throughput per flow.
	MeanMbps [2]float64
	// Drops is the bottleneck drop count.
	Drops uint64
	// Losses/Spurious are sender-side counters per flow.
	Losses   [2]int64
	Spurious [2]int64
	// Events is the number of discrete events the simulation engine fired
	// for this trial — the denominator of the events/sec benchmark metric.
	Events uint64
}

// Points extracts flow i's (delay, throughput) samples per §3.1.
func (tr *TrialResult) Points(i int, n Network) []geom.Point {
	n = n.withDefaults()
	return metrics.Points(tr.Traces[i], metrics.SampleOptions{
		RunDuration: n.Duration,
		BaseRTT:     n.RTT,
	})
}

// Series extracts flow i's windowed time series (for Fig. 15-style plots).
func (tr *TrialResult) Series(i int, n Network) []metrics.SeriesPoint {
	n = n.withDefaults()
	return metrics.Series(tr.Traces[i], metrics.SampleOptions{
		RunDuration: n.Duration,
		BaseRTT:     n.RTT,
	})
}

// Bounds supervises one trial run: an optional cancellation context and an
// optional virtual-clock deadline, both enforced through the faults
// watchdog that every trial already installs. The zero value is unbounded
// (beyond the standing runaway/stall guards).
type Bounds struct {
	// Ctx, when non-nil, aborts an in-flight trial at the next watchdog
	// tick after cancellation; the trial reports faults.ErrInterrupted.
	// This is how SIGINT reaches trials already running inside the
	// discrete-event engine.
	Ctx context.Context
	// Deadline, when positive, caps the trial's virtual clock; exceeding
	// it reports faults.ErrDeadline (the supervised runner's
	// trial-timeout).
	Deadline sim.Time
}

// RunTrialE runs one two-flow experiment: a and b share the bottleneck for
// the configured duration. The trial index individualizes randomness.
// Degenerate outcomes are reported as typed errors: a watchdog abort
// (faults.ErrRunaway / faults.ErrStalled) or a flow that moved no data
// (ErrZeroThroughput). The partial result is returned alongside the error
// for diagnostics.
func RunTrialE(a, b Flow, n Network, trial int) (*TrialResult, error) {
	return runTrial(a, b, n, trial, nil, Bounds{}, nil)
}

// RunTrialBounded is RunTrialE under supervision bounds: cancellation via
// bounds.Ctx surfaces as faults.ErrInterrupted, a virtual-clock deadline as
// faults.ErrDeadline.
func RunTrialBounded(a, b Flow, n Network, trial int, bounds Bounds) (*TrialResult, error) {
	return runTrial(a, b, n, trial, nil, bounds, nil)
}

// RunTrialImpaired is RunTrialE with a fault-injection specification
// applied to the forward (data) path.
func RunTrialImpaired(a, b Flow, n Network, trial int, imp Impairment) (*TrialResult, error) {
	return runTrial(a, b, n, trial, &imp, Bounds{}, nil)
}

// runTrial is the shared trial engine. A nil imp (or an empty one) runs
// the pristine testbed with an RNG draw sequence identical to the
// pre-fault-layer code, so clean-run results are bit-for-bit unchanged.
// bounds only adds watchdog checks, which observe the engine without
// scheduling events, so supervision never perturbs results either. tt, when
// non-nil, attaches the structured event tracer to both senders and streams
// the bottleneck's packet events; tracing observes the trial without
// scheduling events or consuming RNG draws, so traced results are
// bit-identical to untraced ones.
func runTrial(a, b Flow, n Network, trial int, imp *Impairment, bounds Bounds, tt *trialTrace) (*TrialResult, error) {
	n = n.withDefaults()
	// Mix the pairing into the seed so different stacks never share the
	// exact same randomness, even when their configurations coincide.
	h := uint64(14695981039346656037)
	for _, s := range []string{a.Stack.Name, string(a.CCA), b.Stack.Name, string(b.CCA)} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	rng := stats.NewRNG(n.Seed*1_000_003 + uint64(trial)*7919 + h)

	baseRTT := n.RTT
	jitter := baseRTT / 200 // 0.5% of RTT: natural testbed variation
	if n.Wild {
		// Internet paths seen from AWS: heavier per-packet jitter and more
		// reordering. The base RTT itself stays constant — the paper
		// measured ping before each run and padded with Mahimahi to hold
		// 50 ms across trials.
		jitter = baseRTT / 20
	}

	eng := sim.New()
	bdp := netem.BDPBytes(n.BandwidthMbps*1e6, baseRTT)
	queue := int(float64(bdp) * n.BufferBDP)
	db, err := netem.NewDumbbellE(eng, netem.DumbbellConfig{
		BottleneckBps: n.BandwidthMbps * 1e6,
		BaseRTT:       baseRTT,
		QueueBytes:    queue,
		Jitter:        jitter,
		Rng:           rng.Fork(),
		// Internet paths deliver a small fraction of packets out of
		// order (NIC offloads, link-layer retransmissions, load
		// balancing); the clean testbed does not (reorderProb returns 0
		// unless Wild). The extra delay is a few packets' worth at link
		// rate — enough to trip the 3-packet threshold at high rate
		// without knocking over the congestion controller wholesale.
		ReorderProb:  reorderProb(n),
		ReorderDelay: serializationTime(8*1500, n.BandwidthMbps),
	})
	res := &TrialResult{}
	res.Traces[0] = &metrics.FlowTrace{}
	res.Traces[1] = &metrics.FlowTrace{}
	if err != nil {
		return res, fmt.Errorf("core: trial %d topology: %w", trial, err)
	}

	// Fault layer: the injector sits between the senders and the shared
	// bottleneck, so impairments hit the data path (ACK paths stay clean,
	// mirroring a lossy forward segment). It is only constructed when an
	// impairment is requested, keeping the clean path's RNG draw sequence
	// — and therefore every published number — unchanged.
	dataPath := netem.Handler(db.Bottleneck)
	if imp.enabled() {
		inj, ierr := imp.install(eng, rng, db, baseRTT)
		if ierr != nil {
			return res, fmt.Errorf("core: trial %d fault layer: %w", trial, ierr)
		}
		dataPath = inj
	}

	// Watchdog: abort wedged or runaway runs with a diagnostic instead of
	// spinning. The guard only observes the engine, so results of healthy
	// runs are unaffected. Supervision bounds ride on the same guard: the
	// per-trial virtual-clock deadline and the cancellation context.
	expectedPackets := uint64(n.BandwidthMbps*1e6*n.Duration.Seconds()/(8*1200))*2 + 1024
	wcfg := faults.WatchdogConfig{
		MaxEvents: faults.EventBudget(expectedPackets),
		Deadline:  bounds.Deadline,
	}
	if ctx := bounds.Ctx; ctx != nil {
		wcfg.Interrupted = func() bool { return ctx.Err() != nil }
	}
	if bounds.Deadline > 0 || bounds.Ctx != nil {
		// Supervised runs need responsive aborts: the default guard cadence
		// (65536 events) can exceed a short trial's entire event count, so a
		// deadline or cancellation would never be observed. 4096 is still far
		// above any legitimate same-instant event burst, keeping the stall
		// detector sound.
		wcfg.CheckEvery = 4096
	}
	faults.InstallWatchdog(eng, wcfg)

	// The paper computes throughput and delay offline from packet traces.
	// We mirror that: delay samples come from each data packet's bottleneck
	// sojourn (queueing + serialization + forward propagation) plus the
	// reverse propagation — i.e. the RTT the network imposes, independent
	// of receiver ACK scheduling.
	db.Bottleneck.Tap(func(ev netem.LinkEvent) {
		if ev.Kind != netem.Deliver || ev.Packet.IsAck {
			return
		}
		i := ev.Packet.Flow - 1
		if i < 0 || i > 1 {
			return
		}
		res.Traces[i].AddRTT(ev.Time, ev.Sojourn+baseRTT/2)
	})
	if tt != nil && tt.packets != nil {
		db.Bottleneck.Tap(tt.packets.Recorder())
	}
	senders := [2]*transport.Sender{}
	for i, fl := range [2]Flow{a, b} {
		flowID := i + 1
		ft := res.Traces[i]

		ctrl := fl.Stack.NewController(fl.CCA)
		rx := transport.NewReceiver(eng, fl.Stack.Profile, netem.HandlerFunc(func(p *netem.Packet) {
			db.ReverseLink(flowID).HandlePacket(p)
		}), flowID)
		rx.OnDeliver(func(d transport.DeliveredSample) {
			ft.AddDelivery(d.Time, d.Bytes)
		})

		i := i
		db.AttachFlow(flowID, rx, netem.HandlerFunc(func(p *netem.Packet) {
			senders[i].HandlePacket(p)
		}))
		tx := transport.NewSender(eng, fl.Stack.Profile, ctrl, dataPath, flowID)
		if tt != nil {
			// Attaching cascades to the controller (initial state event) —
			// flow 1 then flow 2, a deterministic order.
			tx.SetTracer(tt.tracer)
		}
		senders[i] = tx

		// Randomized start within the first 2 RTTs decorrelates trials
		// without changing the "flows launched together" setup.
		start := sim.Time(rng.Float64() * 2 * float64(baseRTT))
		eng.At(start, tx.Start)
	}

	eng.RunUntil(n.Duration)
	res.Events = eng.Fired()
	if tt != nil {
		// End-of-trial summaries: per-flow transport counters, then the
		// trial-wide engine/bottleneck line. Emitted even for aborted runs —
		// a partial trace plus its final counters is exactly what post-mortem
		// debugging wants.
		now := eng.Now()
		for i := range senders {
			st := senders[i].Stats
			tt.tracer.TransportSummary(now, i+1, telemetry.TransportStats{
				PacketsSent:     uint64(st.PacketsSent),
				BytesSent:       uint64(st.BytesSent),
				PacketsAcked:    uint64(st.PacketsAcked),
				BytesAcked:      uint64(st.BytesAcked),
				PacketsLost:     uint64(st.PacketsLost),
				BytesLost:       uint64(st.BytesLost),
				SpuriousLosses:  uint64(st.SpuriousLosses),
				PTOCount:        uint64(st.PTOCount),
				PersistentCount: uint64(st.PersistentCount),
				RTTSamples:      uint64(st.RTTSamples),
			})
		}
		tt.tracer.TrialSummary(now, telemetry.TrialSummary{
			Events:           eng.Fired(),
			PendingHighwater: eng.PendingHighwater(),
			Drops:            db.Bottleneck.Dropped,
			QueueHighwaterB:  db.Bottleneck.QueueHighwater(),
		})
	}
	if werr := eng.Err(); werr != nil {
		return res, fmt.Errorf("core: trial %d (%s %s vs %s %s, %s) aborted at %v: %w",
			trial, a.Stack.Name, a.CCA, b.Stack.Name, b.CCA, n, eng.Now(), werr)
	}

	trim := sim.Time(float64(n.Duration) * 0.10)
	var zeroErr error
	for i := range res.Traces {
		res.MeanMbps[i] = res.Traces[i].MeanThroughputMbps(trim, n.Duration-trim)
		res.Losses[i] = senders[i].Stats.PacketsLost
		res.Spurious[i] = senders[i].Stats.SpuriousLosses
		if res.MeanMbps[i] == 0 && zeroErr == nil {
			zeroErr = fmt.Errorf("core: trial %d flow %d (%s %s vs %s %s, %s): %w",
				trial, i, a.Stack.Name, a.CCA, b.Stack.Name, b.CCA, n, ErrZeroThroughput)
		}
	}
	res.Drops = db.Bottleneck.Dropped
	return res, zeroErr
}

// trialSet runs n.Trials trials of test sharing the bottleneck with ref and
// returns the per-trial sample sets of the *test* flow. offset shifts the
// trial indices in the seed space; role ("test" or "ref") names the set in
// trace files and errors. A failing trial ends the set with its error.
func trialSet(test, ref Flow, n Network, offset int, role string,
	imp *Impairment, bounds Bounds, ct *cellTracer) ([][]geom.Point, error) {
	n = n.withDefaults()
	trials := make([][]geom.Point, n.Trials)
	for t := range trials {
		tt, err := ct.open(role, t, t+offset, n.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", role, t, err)
		}
		res, err := runTrial(test, ref, n, t+offset, imp, bounds, tt)
		if cerr := tt.close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", role, t, err)
		}
		trials[t] = res.Points(0, n)
	}
	return trials, nil
}

// refOffset separates reference trials from test trials in the seed space,
// so they do not mirror each other packet-for-packet.
const refOffset = 1000

// TestTrials measures the test implementation competing against ref —
// normally the kernel reference of the same CCA (§3.1), or a variant such
// as Table 4's "TCP CUBIC w/o HyStart" — returning per-trial sample sets of
// the *test* flow.
func TestTrials(test, ref Flow, n Network) ([][]geom.Point, error) {
	return trialSet(test, ref, n, 0, "test", nil, Bounds{}, nil)
}

// ReferenceTrials measures a reference flow competing against itself —
// the reference Performance Envelope's input.
func ReferenceTrials(ref Flow, n Network) ([][]geom.Point, error) {
	return trialSet(ref, ref, n, refOffset, "ref", nil, Bounds{}, nil)
}

// Conformance runs the full §3 pipeline for one implementation under one
// network configuration. Every degenerate outcome is a typed error:
// trial-level aborts (watchdog, zero throughput) and envelope-level
// degeneracies (pe.ErrNoSamples, pe.ErrInsufficientSamples,
// pe.ErrDegenerateEnvelope); the metrics are then undefined.
func Conformance(test Flow, n Network) (pe.Report, error) {
	return conformanceImpaired(test, n, nil, Bounds{}, nil)
}

// ConformanceImpaired runs the conformance pipeline with the given fault
// specification applied to every trial — test and reference alike, so both
// envelopes are measured under the same impaired path.
func ConformanceImpaired(test Flow, n Network, imp Impairment) (pe.Report, error) {
	return conformanceImpaired(test, n, &imp, Bounds{}, nil)
}

func conformanceImpaired(test Flow, n Network, imp *Impairment, bounds Bounds, ct *cellTracer) (pe.Report, error) {
	ref := Flow{Stack: stacks.Reference(), CCA: test.CCA}
	testTrials, err := trialSet(test, ref, n, 0, "test", imp, bounds, ct)
	if err != nil {
		return pe.Report{}, err
	}
	refTrials, err := trialSet(ref, ref, n, refOffset, "ref", imp, bounds, ct)
	if err != nil {
		return pe.Report{}, err
	}
	return pe.EvaluateE(testTrials, refTrials, pe.Options{Seed: n.Seed})
}

// ShareResult reports a bandwidth-share experiment (§4.3).
type ShareResult struct {
	A, B Flow
	// ShareA is T_a / (T_a + T_b) averaged over trials.
	ShareA float64
	// MeanMbps are the per-flow means across trials.
	MeanMbps [2]float64
}

// BandwidthShare runs the §4.3 pairwise fairness experiment: both flows
// launched together on a 1 BDP buffer, share computed from mean
// throughputs over the trials. One starved flow is a measured share of 0
// or 1; a trial abort, or both flows starved, leaves the share undefined
// and is reported as an error.
func BandwidthShare(a, b Flow, n Network) (ShareResult, error) {
	n = n.withDefaults()
	var sumA, sumB float64
	for t := 0; t < n.Trials; t++ {
		res, err := RunTrialE(a, b, n, t)
		if err != nil && !errors.Is(err, ErrZeroThroughput) {
			return ShareResult{A: a, B: b}, err
		}
		sumA += res.MeanMbps[0]
		sumB += res.MeanMbps[1]
	}
	ma := sumA / float64(n.Trials)
	mb := sumB / float64(n.Trials)
	if ma+mb == 0 {
		return ShareResult{A: a, B: b}, fmt.Errorf("core: share of %s %s vs %s %s (%s): both flows: %w",
			a.Stack.Name, a.CCA, b.Stack.Name, b.CCA, n, ErrZeroThroughput)
	}
	return ShareResult{A: a, B: b, ShareA: ma / (ma + mb), MeanMbps: [2]float64{ma, mb}}, nil
}
