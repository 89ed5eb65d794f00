package traffic

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cc"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ErrConservation marks a packet-conservation violation detected at drain:
// packets injected into a link did not all come back out as delivered or
// dropped, or a queue failed to empty. It indicates an engine bug, never a
// property of the simulated workload, so Run always checks it.
var ErrConservation = errors.New("traffic: packet conservation violated")

// Cohort is a resolved flow population: its serializable spec plus the
// transport profile and congestion-controller factory the caller resolved
// from the stack registry (this package never imports the registry).
type Cohort struct {
	Spec          CohortSpec
	Profile       transport.Config
	NewController func() cc.Controller
}

// NetConfig shapes the shared path: one forward bottleneck carrying every
// flow's data, one fast shared reverse link carrying every ACK.
type NetConfig struct {
	// BottleneckBps is the forward serialization rate (> 0).
	BottleneckBps float64
	// BaseRTT is the two-way propagation delay, split evenly across the
	// forward and reverse links.
	BaseRTT sim.Time
	// QueueBytes is the bottleneck's droptail capacity (0 = unlimited).
	QueueBytes int
	// ReverseBps defaults to 40x the bottleneck (effectively uncongested).
	ReverseBps float64
	// Jitter adds uniform [0, Jitter] per-packet delay on the forward
	// path, decorrelating trials like the two-flow testbed does.
	Jitter sim.Time
}

// Config assembles one many-flow trial.
type Config struct {
	// Spec is the validated traffic model; Cohorts resolves its cohort
	// list 1:1 (same order).
	Spec    Spec
	Cohorts []Cohort
	Net     NetConfig
	// Duration is the measurement horizon on the virtual clock.
	Duration sim.Time
	// SampleRTTs sizes the per-cohort sampling window in base RTTs
	// (default 10, matching §3.1); TruncFrac is trimmed from each end of
	// the run before windows count (default 0.10).
	SampleRTTs int
	TruncFrac  float64
	// Seed drives every random draw: arrivals, cohort picks, flow sizes,
	// start staggering, link jitter.
	Seed uint64
	// Deadline and Interrupted ride on the engine watchdog, mirroring
	// core.Bounds for supervised sweeps.
	Deadline    sim.Time
	Interrupted func() bool
	// Tracer, when non-nil, receives qlog events from every sender plus
	// per-flow completion summaries; tracing never perturbs results.
	Tracer telemetry.Tracer
}

// binding routes one direction of one flow id to its current endpoint,
// with a generation check: a packet arriving for a released (or rebound)
// flow is counted and discarded, never delivered into recycled state. It
// is embedded in flowState, so registration allocates nothing.
type binding struct {
	e   *Engine
	fs  *flowState
	gen uint64
	ack bool // reverse path: route to the sender
}

// HandlePacket implements netem.Handler.
func (b *binding) HandlePacket(p *netem.Packet) {
	fs := b.fs
	if !fs.active || fs.gen != b.gen || fs.id != p.Flow {
		b.e.stats.StaleDeliveries++
		netem.ReleasePacket(p)
		return
	}
	if b.ack {
		fs.snd.HandlePacket(p)
	} else {
		fs.rcv.HandlePacket(p)
	}
}

// flowState is one live (or pooled) flow. gen increments on every release,
// so any event still holding the previous incarnation is detectable.
type flowState struct {
	id     int
	gen    uint64
	cohort int
	size   int64
	start  sim.Time
	snd    *transport.Sender
	rcv    *transport.Receiver
	active bool
	fwdH   binding // data path -> rcv
	revH   binding // ACK path -> snd
}

// cohortAccum aggregates one cohort's running totals plus the current
// sampling window (flushed by the single periodic window event).
type cohortAccum struct {
	started        int64
	completed      int64
	bytesAcked     int64
	bytesDelivered int64
	fctSum         sim.Time
	lost           int64
	spurious       int64

	wBytes  int64
	wRTTSum sim.Time
	wRTTN   int64
	points  []geom.Point
}

// EngineStats are the engine's own counters (flow lifecycle and pool
// discipline), exposed for invariant tests and reports.
type EngineStats struct {
	FlowsStarted  int64
	FlowsReleased int64
	Completed     int64
	Rejected      int64
	PeakActive    int
	// StaleDeliveries counts packets that arrived for a flow after its
	// release (caught by the generation check). Any nonzero value is a
	// lifecycle bug.
	StaleDeliveries int64
	// InjectedData/InjectedAcks count packets entering the forward and
	// reverse links — the conservation ledger's debit side.
	InjectedData uint64
	InjectedAcks uint64
}

// counter wraps a link destination, counting injected packets for the
// conservation ledger.
type counter struct {
	n   *uint64
	dst netem.Handler
}

func (c counter) HandlePacket(p *netem.Packet) {
	*c.n++
	c.dst.HandlePacket(p)
}

// CohortResult is one cohort's slice of a trial result.
type CohortResult struct {
	Name      string
	Reference bool
	Started   int64
	Completed int64
	// BytesAcked includes the partial progress of flows still live at the
	// measurement horizon.
	BytesAcked int64
	// MeanMbps is the cohort's delivered bytes over the full duration.
	MeanMbps float64
	// MeanFCTms averages completion time over completed flows (0 if none).
	MeanFCTms float64
	Lost      int64
	Spurious  int64
	// Points are the per-window (delay ms, throughput Mbps) samples inside
	// the truncated measurement interval — the PE machinery's input.
	Points []geom.Point
}

// Result is one many-flow trial's outcome.
type Result struct {
	Flows           int64
	Completed       int64
	Rejected        int64
	PeakActive      int
	Events          uint64
	Drops           uint64
	QueueHighwaterB int
	AggMbps         float64
	Cohorts         []CohortResult
	Stats           EngineStats
}

// Engine runs one many-flow trial on its own discrete-event engine. Every
// event costs O(1) work independent of the live-flow count: arrivals are
// one self-rescheduling event, packets demux through a map, window
// flushing is one periodic event over the (constant-size) cohort list, and
// flow completion touches only the completing flow.
type Engine struct {
	eng *sim.Engine
	cfg Config
	rng *stats.RNG

	clk transport.Clock // e.eng wrapped once; reused by every endpoint

	arrival   *stats.Exponential
	sizes     []*stats.BoundedPareto
	cum       []float64 // cumulative cohort fractions
	arrivalEv sim.EventID
	arriving  bool
	arrivalFn func() // onArrival, bound once (one alloc, not one per arrival)

	fwd      *netem.Link
	rev      *netem.Link
	fwdDemux *netem.Demux
	revDemux *netem.Demux
	fwdIn    netem.Handler // counting wrapper in front of fwd
	revIn    netem.Handler

	flows    map[int]*flowState
	nextID   int
	active   int
	flowFree []*flowState
	sndFree  []*transport.Sender
	rcvFree  []*transport.Receiver

	win     sim.Time
	trim    sim.Time
	cohorts []cohortAccum
	stats   EngineStats
}

// New validates cfg and builds the trial topology. The returned engine is
// single-use: call Run once.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Cohorts) != len(cfg.Spec.Cohorts) {
		return nil, fmt.Errorf("%w: %d resolved cohorts for %d specs",
			ErrSpec, len(cfg.Cohorts), len(cfg.Spec.Cohorts))
	}
	for i, co := range cfg.Cohorts {
		if co.NewController == nil {
			return nil, fmt.Errorf("%w: cohort %q has no controller factory", ErrSpec, cfg.Spec.Cohorts[i].Name)
		}
	}
	if cfg.Net.BottleneckBps <= 0 || cfg.Net.BaseRTT <= 0 {
		return nil, fmt.Errorf("%w: bottleneck %g bps / RTT %v", ErrSpec, cfg.Net.BottleneckBps, cfg.Net.BaseRTT)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %v", ErrSpec, cfg.Duration)
	}
	if cfg.Net.ReverseBps == 0 {
		cfg.Net.ReverseBps = cfg.Net.BottleneckBps * 40
	}
	if cfg.SampleRTTs <= 0 {
		cfg.SampleRTTs = 10
	}
	if cfg.TruncFrac == 0 {
		cfg.TruncFrac = 0.10
	}

	e := &Engine{
		eng:      sim.New(),
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		fwdDemux: netem.NewDemux(),
		revDemux: netem.NewDemux(),
		flows:    make(map[int]*flowState, cfg.Spec.MaxConcurrent),
		nextID:   1,
		win:      sim.Time(cfg.SampleRTTs) * cfg.Net.BaseRTT,
		trim:     sim.Time(float64(cfg.Duration) * cfg.TruncFrac),
		cohorts:  make([]cohortAccum, len(cfg.Cohorts)),
	}
	e.clk = transport.SimClock(e.eng)
	e.arrivalFn = e.onArrival

	// Samplers share the trial RNG: draws interleave in event order, which
	// is deterministic on the single-threaded engine.
	if cfg.Spec.ArrivalPerSec > 0 {
		a, err := stats.NewExponential(e.rng, cfg.Spec.ArrivalPerSec)
		if err != nil {
			return nil, err
		}
		e.arrival = a
	}
	e.sizes = make([]*stats.BoundedPareto, len(cfg.Cohorts))
	var cum float64
	for i, c := range cfg.Spec.Cohorts {
		bp, err := stats.NewBoundedPareto(e.rng, c.SizeAlpha, c.MinBytes, c.MaxBytes)
		if err != nil {
			return nil, fmt.Errorf("cohort %q: %w", c.Name, err)
		}
		e.sizes[i] = bp
		cum += c.Fraction
		e.cum = append(e.cum, cum)
	}
	// Absorb float drift so the last cohort always catches u -> 1.
	e.cum[len(e.cum)-1] = 1

	lc := netem.LinkConfig{
		RateBps:     cfg.Net.BottleneckBps,
		Propagation: cfg.Net.BaseRTT / 2,
		QueueBytes:  cfg.Net.QueueBytes,
	}
	if cfg.Net.Jitter > 0 {
		lc.Jitter = cfg.Net.Jitter
		lc.JitterRNG = e.rng.Fork()
	}
	fwd, err := netem.NewLinkE(e.eng, lc, e.fwdDemux)
	if err != nil {
		return nil, fmt.Errorf("traffic: bottleneck: %w", err)
	}
	e.fwd = fwd
	rev, err := netem.NewLinkE(e.eng, netem.LinkConfig{
		RateBps:     cfg.Net.ReverseBps,
		Propagation: cfg.Net.BaseRTT / 2,
	}, e.revDemux)
	if err != nil {
		return nil, fmt.Errorf("traffic: reverse link: %w", err)
	}
	e.rev = rev
	e.fwdIn = counter{n: &e.stats.InjectedData, dst: fwd}
	e.revIn = counter{n: &e.stats.InjectedAcks, dst: rev}

	// Per-cohort delay samples from the bottleneck's delivery tap: sojourn
	// (queueing + serialization + forward propagation) plus the reverse
	// propagation — the RTT the network imposes, same as the two-flow
	// trial engine. The flow -> cohort lookup is one map access.
	halfRTT := cfg.Net.BaseRTT / 2
	fwd.Tap(func(ev netem.LinkEvent) {
		if ev.Kind != netem.Deliver || ev.Packet.IsAck {
			return
		}
		if fs, ok := e.flows[ev.Packet.Flow]; ok {
			acc := &e.cohorts[fs.cohort]
			acc.wRTTSum += ev.Sojourn + halfRTT
			acc.wRTTN++
		}
	})

	// Watchdog: sized from the throughput bound plus a per-flow overhead
	// allowance (handshakes of timers, PTO probes on thin flows).
	expectedPackets := uint64(cfg.Net.BottleneckBps*cfg.Duration.Seconds()/(8*1200))*2 + 1024
	expectedFlows := uint64(cfg.Spec.InitialFlows) + uint64(cfg.Spec.ArrivalPerSec*cfg.Duration.Seconds())
	wcfg := faults.WatchdogConfig{
		MaxEvents:   faults.EventBudget(expectedPackets + 64*expectedFlows),
		Deadline:    cfg.Deadline,
		Interrupted: cfg.Interrupted,
	}
	if cfg.Deadline > 0 || cfg.Interrupted != nil {
		wcfg.CheckEvery = 4096
	}
	faults.InstallWatchdog(e.eng, wcfg)
	return e, nil
}

// Sim exposes the underlying discrete-event engine (for taps and invariant
// probes scheduled by tests).
func (e *Engine) Sim() *sim.Engine { return e.eng }

// Active returns the number of live flows.
func (e *Engine) Active() int { return e.active }

// PoolSizes reports the free-list depths (flows, senders, receivers) for
// pool-discipline assertions.
func (e *Engine) PoolSizes() (flows, senders, receivers int) {
	return len(e.flowFree), len(e.sndFree), len(e.rcvFree)
}

// ForEachActive visits every live flow — an invariant-audit hook for
// property tests (cwnd/bytes-in-flight bounds). Visit order is map order:
// callers must only assert, never mutate or emit.
func (e *Engine) ForEachActive(fn func(id, cohort int, snd *transport.Sender, rcv *transport.Receiver)) {
	for id, fs := range e.flows {
		fn(id, fs.cohort, fs.snd, fs.rcv)
	}
}

// pickCohort draws the arriving flow's cohort from the cumulative fraction
// table. O(cohorts), and the cohort list is a small constant — never
// O(flows).
func (e *Engine) pickCohort() int {
	u := e.rng.Float64()
	for i, c := range e.cum {
		if u < c {
			return i
		}
	}
	return len(e.cum) - 1
}

// acquireFlow pops a recycled flowState — engine-local first, then the
// cross-engine tier — or allocates a fresh one.
func (e *Engine) acquireFlow() *flowState {
	if n := len(e.flowFree); n > 0 {
		fs := e.flowFree[n-1]
		e.flowFree = e.flowFree[:n-1]
		if fs.active {
			panic("traffic: pooled flow acquired while active")
		}
		return fs
	}
	if fs := adoptFlow(); fs != nil {
		return fs
	}
	return &flowState{}
}

// startFlow admits one flow at the current instant: cohort pick, size
// draw, endpoint acquisition from the pools, demux registration, start.
func (e *Engine) startFlow(now sim.Time) {
	ci := e.pickCohort()
	co := &e.cfg.Cohorts[ci]
	acc := &e.cohorts[ci]

	size := int64(e.sizes[ci].Sample())
	if size < 1 {
		size = 1
	}

	fs := e.acquireFlow()
	id := e.nextID
	e.nextID++
	fs.id = id
	fs.cohort = ci
	fs.size = size
	fs.start = now
	fs.active = true

	var rcv *transport.Receiver
	if n := len(e.rcvFree); n > 0 {
		rcv = e.rcvFree[n-1]
		e.rcvFree = e.rcvFree[:n-1]
		rcv.ResetFlow(co.Profile, e.revIn, id)
	} else if rcv = adoptReceiver(e.clk); rcv != nil {
		rcv.ResetFlow(co.Profile, e.revIn, id)
	} else {
		rcv = transport.NewReceiver(e.eng, co.Profile, e.revIn, id)
	}
	var snd *transport.Sender
	ctrl := co.NewController()
	if n := len(e.sndFree); n > 0 {
		snd = e.sndFree[n-1]
		e.sndFree = e.sndFree[:n-1]
		snd.ResetFlow(co.Profile, ctrl, e.fwdIn, id)
	} else if snd = adoptSender(e.clk); snd != nil {
		snd.ResetFlow(co.Profile, ctrl, e.fwdIn, id)
	} else {
		snd = transport.NewSender(e.eng, co.Profile, ctrl, e.fwdIn, id)
	}
	snd.SetFlowBytes(size)
	snd.OnComplete(func() { e.finishFlow(fs) })
	rcv.OnDeliver(func(d transport.DeliveredSample) {
		acc.wBytes += int64(d.Bytes)
		acc.bytesDelivered += int64(d.Bytes)
	})
	if e.cfg.Tracer != nil {
		snd.SetTracer(e.cfg.Tracer)
	}
	fs.snd = snd
	fs.rcv = rcv
	fs.fwdH = binding{e: e, fs: fs, gen: fs.gen}
	fs.revH = binding{e: e, fs: fs, gen: fs.gen, ack: true}
	e.fwdDemux.Register(id, &fs.fwdH)
	e.revDemux.Register(id, &fs.revH)
	e.flows[id] = fs

	e.active++
	if e.active > e.stats.PeakActive {
		e.stats.PeakActive = e.active
	}
	e.stats.FlowsStarted++
	acc.started++
	snd.Start()
}

// harvest folds a flow's transport counters into its cohort accumulator
// (called at completion and for survivors at the horizon).
func (e *Engine) harvest(fs *flowState, now sim.Time) {
	st := fs.snd.Stats
	acc := &e.cohorts[fs.cohort]
	acc.bytesAcked += st.BytesAcked
	acc.lost += st.PacketsLost
	acc.spurious += st.SpuriousLosses
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TransportSummary(now, fs.id, telemetry.TransportStats{
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
}

// finishFlow retires a completed flow: accounting, demux unregistration,
// and recycling of every pooled object. Runs inside the completing ACK's
// event (the sender's OnComplete hook fires after all other processing),
// so it touches only this flow — O(1) in the live-flow count.
func (e *Engine) finishFlow(fs *flowState) {
	now := e.eng.Now()
	acc := &e.cohorts[fs.cohort]
	acc.completed++
	acc.fctSum += now - fs.start
	e.stats.Completed++
	e.harvest(fs, now)
	e.releaseFlow(fs)
}

// releaseFlow returns a flow's state to the pools and bumps its
// generation, making any event that still references the old incarnation
// detectable (binding.HandlePacket).
func (e *Engine) releaseFlow(fs *flowState) {
	if !fs.active {
		panic("traffic: double release of pooled flow")
	}
	e.fwdDemux.Unregister(fs.id)
	e.revDemux.Unregister(fs.id)
	delete(e.flows, fs.id)
	fs.snd.Stop()
	fs.rcv.Stop()
	e.sndFree = append(e.sndFree, fs.snd)
	e.rcvFree = append(e.rcvFree, fs.rcv)
	fs.snd = nil
	fs.rcv = nil
	fs.active = false
	fs.gen++
	e.flowFree = append(e.flowFree, fs)
	e.active--
	e.stats.FlowsReleased++
}

// onArrival admits (or rejects) one Poisson arrival and reschedules
// itself: exactly one pending arrival event exists at any time.
func (e *Engine) onArrival() {
	e.arriving = false
	now := e.eng.Now()
	if e.active >= e.cfg.Spec.MaxConcurrent {
		e.stats.Rejected++
	} else {
		e.startFlow(now)
	}
	e.scheduleArrival(now)
}

func (e *Engine) scheduleArrival(now sim.Time) {
	if e.arrival == nil {
		return
	}
	dt := sim.Time(e.arrival.Sample() * float64(sim.Second))
	if dt < 1 {
		dt = 1
	}
	if now+dt >= e.cfg.Duration {
		return // no arrivals past the horizon
	}
	e.arrivalEv = e.eng.At(now+dt, e.arrivalFn)
	e.arriving = true
}

// onWindow flushes every cohort's sampling window into its point series
// and reschedules. One event per window over a constant-size cohort list:
// sampling cost is independent of the live-flow count.
func (e *Engine) onWindow() {
	now := e.eng.Now()
	if now-e.win >= e.trim && now <= e.cfg.Duration-e.trim {
		for i := range e.cohorts {
			c := &e.cohorts[i]
			// A window needs both a delivery and an RTT sample to yield a
			// (delay, throughput) point, mirroring metrics.Points.
			if c.wBytes > 0 && c.wRTTN > 0 {
				delayMs := (c.wRTTSum / sim.Time(c.wRTTN)).Millis()
				mbps := float64(c.wBytes*8) / e.win.Seconds() / 1e6
				c.points = append(c.points, geom.Point{X: delayMs, Y: mbps})
			}
		}
	}
	for i := range e.cohorts {
		c := &e.cohorts[i]
		c.wBytes = 0
		c.wRTTSum = 0
		c.wRTTN = 0
	}
	if now+e.win <= e.cfg.Duration {
		e.eng.At(now+e.win, e.onWindow)
	}
}

// Run executes the trial: initial flows staggered across the first two
// RTTs, the Poisson arrival process until the horizon, then a full drain
// (stop every flow, let queued packets and timers play out) and the
// packet-conservation audit. The partial result accompanies any error.
func (e *Engine) Run() (*Result, error) {
	admit := func() {
		if e.active >= e.cfg.Spec.MaxConcurrent {
			e.stats.Rejected++
			return
		}
		e.startFlow(e.eng.Now())
	}
	for i := 0; i < e.cfg.Spec.InitialFlows; i++ {
		at := sim.Time(e.rng.Float64() * 2 * float64(e.cfg.Net.BaseRTT))
		e.eng.At(at, admit)
	}
	e.scheduleArrival(0)
	e.eng.At(e.win, e.onWindow)

	e.eng.RunUntil(e.cfg.Duration)
	if err := e.eng.Err(); err != nil {
		return e.result(), fmt.Errorf("traffic: trial aborted at %v: %w", e.eng.Now(), err)
	}

	// Horizon: stop the arrival process and every live flow, then drain.
	// Stopping only cancels timers, so map iteration order cannot affect
	// results. In-flight packets still deliver; stale ones for completed
	// flows are absorbed by the demux/binding checks.
	if e.arriving {
		e.eng.Cancel(e.arrivalEv)
		e.arriving = false
	}
	for _, fs := range e.flows {
		fs.snd.Stop()
		fs.rcv.Stop()
	}
	e.eng.Run()
	if err := e.eng.Err(); err != nil {
		return e.result(), fmt.Errorf("traffic: drain aborted at %v: %w", e.eng.Now(), err)
	}

	// Retire the survivors: their partial progress counts into cohort
	// totals (not FCT), and releasing them closes the pool ledger —
	// acquired == released, generation discipline fully exercised. Flow-id
	// order, not map order: harvest emits per-flow trace summaries, and
	// traces must be bit-identical across runs.
	now := e.eng.Now()
	ids := make([]int, 0, len(e.flows))
	for id := range e.flows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fs := e.flows[id]
		e.harvest(fs, now)
		e.releaseFlow(fs)
	}

	res := e.result()
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TrialSummary(now, telemetry.TrialSummary{
			Events:           e.eng.Fired(),
			PendingHighwater: e.eng.PendingHighwater(),
			Drops:            e.fwd.Dropped,
			QueueHighwaterB:  e.fwd.QueueHighwater(),
		})
	}
	return res, e.CheckConservation()
}

// CheckConservation audits the packet ledger after a drain: every packet
// injected into a link must have been delivered or dropped, and both
// queues must be empty. Returns nil when the ledger balances.
func (e *Engine) CheckConservation() error {
	if got := e.fwd.Delivered + e.fwd.Dropped; got != e.stats.InjectedData {
		return fmt.Errorf("%w: forward link injected %d, delivered %d + dropped %d",
			ErrConservation, e.stats.InjectedData, e.fwd.Delivered, e.fwd.Dropped)
	}
	if got := e.rev.Delivered + e.rev.Dropped; got != e.stats.InjectedAcks {
		return fmt.Errorf("%w: reverse link injected %d, delivered %d + dropped %d",
			ErrConservation, e.stats.InjectedAcks, e.rev.Delivered, e.rev.Dropped)
	}
	if qb := e.fwd.QueueBytes(); qb != 0 {
		return fmt.Errorf("%w: %d bytes left in the bottleneck queue after drain", ErrConservation, qb)
	}
	if qb := e.rev.QueueBytes(); qb != 0 {
		return fmt.Errorf("%w: %d bytes left in the reverse queue after drain", ErrConservation, qb)
	}
	if e.stats.FlowsStarted != e.stats.FlowsReleased {
		return fmt.Errorf("%w: %d flows started, %d released",
			ErrConservation, e.stats.FlowsStarted, e.stats.FlowsReleased)
	}
	if e.stats.StaleDeliveries != 0 {
		return fmt.Errorf("%w: %d packets delivered to released flows", ErrConservation, e.stats.StaleDeliveries)
	}
	return nil
}

// result snapshots the trial outcome from the accumulators.
func (e *Engine) result() *Result {
	res := &Result{
		Flows:           e.stats.FlowsStarted,
		Completed:       e.stats.Completed,
		Rejected:        e.stats.Rejected,
		PeakActive:      e.stats.PeakActive,
		Events:          e.eng.Fired(),
		Drops:           e.fwd.Dropped,
		QueueHighwaterB: e.fwd.QueueHighwater(),
		Stats:           e.stats,
	}
	dur := e.cfg.Duration.Seconds()
	var total int64
	for i := range e.cohorts {
		c := &e.cohorts[i]
		cr := CohortResult{
			Name:       e.cfg.Spec.Cohorts[i].Name,
			Reference:  e.cfg.Spec.Cohorts[i].Reference,
			Started:    c.started,
			Completed:  c.completed,
			BytesAcked: c.bytesAcked,
			MeanMbps:   float64(c.bytesDelivered*8) / dur / 1e6,
			Lost:       c.lost,
			Spurious:   c.spurious,
			Points:     c.points,
		}
		if c.completed > 0 {
			cr.MeanFCTms = (c.fctSum / sim.Time(c.completed)).Millis()
		}
		total += c.bytesDelivered
		res.Cohorts = append(res.Cohorts, cr)
	}
	res.AggMbps = float64(total*8) / dur / 1e6
	return res
}
