package quicbench

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/stacks"
)

// CCA identifies a congestion control algorithm.
type CCA string

// The three algorithms the paper studies.
const (
	CUBIC CCA = "cubic"
	BBR   CCA = "bbr"
	Reno  CCA = "reno"
)

// AllCCAs lists the algorithms in the paper's order.
var AllCCAs = []CCA{CUBIC, BBR, Reno}

// Network configures one experiment network, mirroring the §4 grid. The
// zero value selects the paper's representative configuration: 20 Mbps,
// 10 ms RTT, 1 BDP droptail buffer, 120 s flows, 5 trials.
type Network struct {
	BandwidthMbps float64       // bottleneck capacity (default 20)
	RTT           time.Duration // base round-trip time (default 10 ms)
	BufferBDP     float64       // droptail buffer in BDP multiples (default 1)
	Duration      time.Duration // flow runtime (default 120 s)
	Trials        int           // repetitions (default 5)
	Seed          uint64        // randomness seed (default 0)
	Wild          bool          // §4.2 Internet-path emulation
}

// toCore converts to the internal representation.
func (n Network) toCore() core.Network {
	return core.Network{
		BandwidthMbps: n.BandwidthMbps,
		RTT:           sim.Duration(n.RTT),
		BufferBDP:     n.BufferBDP,
		Duration:      sim.Duration(n.Duration),
		Trials:        n.Trials,
		Seed:          n.Seed,
		Wild:          n.Wild,
	}
}

// Report carries the full §3 metric set for one implementation.
type Report struct {
	// Conformance is the enhanced (clustered) metric of §3.2.
	Conformance float64
	// ConformanceOld uses the single-hull definition from the authors'
	// earlier work (the paper's "Conf-old" columns).
	ConformanceOld float64
	// ConformanceT is the maximum conformance over translations (§3.3).
	ConformanceT float64
	// DeltaThroughputMbps / DeltaDelayMs are the §3.3 tuning hints:
	// how the test implementation sits relative to the reference.
	DeltaThroughputMbps float64
	DeltaDelayMs        float64
	// K is the natural cluster count chosen for the test envelope.
	K int
	// ManyFlow carries the per-cohort breakdown when the cell ran the
	// many-flow traffic engine (SweepOptions.TrafficSpec); nil for classic
	// two-flow cells. The top-level metrics then describe the aggregate
	// non-reference population against the reference cohort's envelope.
	ManyFlow *ManyFlowReport
}

// CohortReport is one cohort's slice of a many-flow report: PE metrics
// against the reference cohort plus workload accounting. Reference cohorts
// carry accounting only.
type CohortReport struct {
	Name                string
	Reference           bool
	Conformance         float64
	ConformanceT        float64
	DeltaThroughputMbps float64
	DeltaDelayMs        float64
	K                   int
	Flows               int64
	Completed           int64
	MeanFCTms           float64
	MeanMbps            float64
	// Jain is Jain's fairness index over the cohort's window throughput
	// samples pooled across trials (1 = perfectly even sharing).
	Jain float64
}

// ManyFlowReport aggregates a many-flow cell: flow-population accounting
// across trials plus the per-cohort breakdown.
type ManyFlowReport struct {
	Flows      int64
	Completed  int64
	Rejected   int64
	PeakActive int
	AggMbps    float64
	Cohorts    []CohortReport
}

func fromManyFlowReport(mf *core.ManyFlowReport) *ManyFlowReport {
	if mf == nil {
		return nil
	}
	out := &ManyFlowReport{
		Flows:      mf.Flows,
		Completed:  mf.Completed,
		Rejected:   mf.Rejected,
		PeakActive: mf.PeakActive,
		AggMbps:    mf.AggMbps,
	}
	for _, c := range mf.Cohorts {
		out.Cohorts = append(out.Cohorts, CohortReport{
			Name:                c.Name,
			Reference:           c.Reference,
			Conformance:         c.Conformance,
			ConformanceT:        c.ConformanceT,
			DeltaThroughputMbps: c.DeltaThroughputMbps,
			DeltaDelayMs:        c.DeltaDelayMs,
			K:                   c.K,
			Flows:               c.Flows,
			Completed:           c.Completed,
			MeanFCTms:           c.MeanFCTms,
			MeanMbps:            c.MeanMbps,
			Jain:                c.Jain,
		})
	}
	return out
}

// DefaultTrafficSpec returns the canonical many-flow traffic model as JSON
// (90% short web flows + 5% bulk on quic-go CUBIC, 5% kernel-reference
// bulk; Poisson arrivals at 500 flows/s into a 1000-flow cap), ready for
// SweepOptions.TrafficSpec or as a template for a custom spec file.
func DefaultTrafficSpec() []byte {
	js, err := json.MarshalIndent(core.DefaultTrafficSpec(), "", "  ")
	if err != nil {
		panic(err) // a compile-time-constant spec cannot fail to marshal
	}
	return append(js, '\n')
}

func fromPEReport(r pe.Report) Report {
	return Report{
		Conformance:         r.Conformance,
		ConformanceOld:      r.ConformanceOld,
		ConformanceT:        r.ConformanceT,
		DeltaThroughputMbps: r.DeltaThroughputMbps,
		DeltaDelayMs:        r.DeltaDelayMs,
		K:                   r.K,
	}
}

// Impl identifies one (stack, CCA) implementation.
type Impl struct {
	Stack string
	CCA   CCA
}

// String implements fmt.Stringer.
func (im Impl) String() string { return im.Stack + " " + string(im.CCA) }

// Stacks returns the names of all modelled stacks, the kernel reference
// first, in the paper's Table 1 order.
func Stacks() []string {
	var out []string
	for _, s := range stacks.All() {
		out = append(out, s.Name)
	}
	return out
}

// Implementations returns the 22 QUIC (stack, CCA) pairs of Table 1.
func Implementations() []Impl {
	var out []Impl
	for _, im := range stacks.AllImplementations() {
		out = append(out, Impl{Stack: im.Stack, CCA: CCA(im.CCA)})
	}
	return out
}

// ImplementationsOf returns the QUIC stacks shipping the given CCA.
func ImplementationsOf(cca CCA) []Impl {
	var out []Impl
	for _, im := range stacks.Implementations(stacks.CCA(cca)) {
		out = append(out, Impl{Stack: im.Stack, CCA: CCA(im.CCA)})
	}
	return out
}

// flow resolves a public (stack, cca) pair, validating both.
func flow(stack string, cca CCA) (core.Flow, error) {
	s := stacks.Get(stack)
	if s == nil {
		return core.Flow{}, fmt.Errorf("quicbench: unknown stack %q", stack)
	}
	if !s.Has(stacks.CCA(cca)) {
		return core.Flow{}, fmt.Errorf("quicbench: stack %q does not implement %s", stack, cca)
	}
	return core.Flow{Stack: s, CCA: stacks.CCA(cca)}, nil
}

// MeasureConformance runs the paper's conformance pipeline for one
// implementation: the implementation competes against the kernel reference
// of the same CCA, the reference self-competes, Performance Envelopes are
// built per §3.2, and the metrics of §3.1/§3.3 are computed. Undefined
// metrics are an error wrapping the typed cause (pe.ErrDegenerateEnvelope,
// core.ErrZeroThroughput, a watchdog abort), never a zero report.
func MeasureConformance(stack string, cca CCA, net Network) (Report, error) {
	f, err := flow(stack, cca)
	if err != nil {
		return Report{}, err
	}
	return conformance(f, net)
}

// conformance runs the pipeline for a resolved flow.
func conformance(f core.Flow, net Network) (Report, error) {
	rep, err := core.Conformance(f, net.toCore())
	if err != nil {
		return Report{}, fmt.Errorf("quicbench: %s %s: %w", f.Stack.Name, f.CCA, err)
	}
	return fromPEReport(rep), nil
}

// Share reports a pairwise bandwidth-share experiment (§4.3).
type Share struct {
	A, B Impl
	// ShareA is throughput_A / (throughput_A + throughput_B); above 0.5
	// means A takes more than its fair share.
	ShareA float64
	// MeanMbps are the per-flow mean throughputs.
	MeanMbps [2]float64
}

// MeasureFairness runs the §4.3 bandwidth-share experiment between two
// implementations. A trial abort, or both flows starved, is an error.
func MeasureFairness(a, b Impl, net Network) (Share, error) {
	fa, err := flow(a.Stack, a.CCA)
	if err != nil {
		return Share{}, err
	}
	fb, err := flow(b.Stack, b.CCA)
	if err != nil {
		return Share{}, err
	}
	return share(a, b, fa, fb, net)
}

// share runs the bandwidth-share experiment for resolved flows.
func share(a, b Impl, fa, fb core.Flow, net Network) (Share, error) {
	res, err := core.BandwidthShare(fa, fb, net.toCore())
	if err != nil {
		return Share{}, fmt.Errorf("quicbench: share of %s vs %s: %w", a, b, err)
	}
	return Share{A: a, B: b, ShareA: res.ShareA, MeanMbps: res.MeanMbps}, nil
}

// Point is a (delay, throughput) sample on the PE plane.
type Point struct {
	DelayMs float64
	Mbps    float64
}

// Envelope is a Performance Envelope exposed for plotting: the convex
// hulls plus the samples that produced them.
type Envelope struct {
	// Hulls are the PE polygons (vertex lists).
	Hulls [][]Point
	// Points is the pooled sample cloud across trials.
	Points []Point
	// K is the chosen cluster count.
	K int
}

func fromPE(e *pe.Envelope) Envelope {
	out := Envelope{K: e.K}
	for _, h := range e.Hulls {
		hull := make([]Point, len(h))
		for i, v := range h {
			hull[i] = Point{DelayMs: v.X, Mbps: v.Y}
		}
		out.Hulls = append(out.Hulls, hull)
	}
	for _, p := range e.AllPoints() {
		out.Points = append(out.Points, Point{DelayMs: p.X, Mbps: p.Y})
	}
	return out
}

// BuildEnvelopes runs the conformance experiment and returns both PEs
// (test and reference) for visualization, as in the paper's PE figures.
func BuildEnvelopes(stack string, cca CCA, net Network) (test, ref Envelope, err error) {
	f, err := flow(stack, cca)
	if err != nil {
		return Envelope{}, Envelope{}, err
	}
	testTrials, refTrials, err := refCache{}.trials(f, kernelFlow(f.CCA), net.toCore())
	var te, re *pe.Envelope
	if err == nil {
		te, re, err = envelopePair(testTrials, refTrials, net.Seed)
	}
	if err != nil {
		return Envelope{}, Envelope{}, fmt.Errorf("quicbench: %s %s: %w", stack, cca, err)
	}
	return fromPE(te), fromPE(re), nil
}

// Fixed reports whether the paper proposes a §5 fix for the given
// implementation, and if so, measures the fixed variant's conformance.
func Fixed(stack string, cca CCA, net Network) (Report, bool, error) {
	fixedStack, ok := stacks.Fixed(stack, stacks.CCA(cca))
	if !ok {
		return Report{}, false, nil
	}
	rep, err := conformance(core.Flow{Stack: fixedStack, CCA: stacks.CCA(cca)}, net)
	return rep, true, err
}

// DeviationNote returns the modelled deviation documentation for an
// implementation ("" when it is standard).
func DeviationNote(stack string, cca CCA) string {
	s := stacks.Get(stack)
	if s == nil {
		return ""
	}
	return s.Notes[stacks.CCA(cca)]
}
