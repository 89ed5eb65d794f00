package main

import "time"

// Spans are recorded from the harness's own files, around the calls into
// each layer; nothing inside the program is instrumented.
//
// Two granularities. Coarse spans (cell, trial, points, pe.*, journal) are
// kept individually. Per-packet spans would be millions per trial, so they
// are aggregated per trial into (name, parent, count, total, self). A
// span's self time is its duration minus the part its child spans cover,
// so the self times under one root sum to the root's duration exactly.

// spanKind names a per-packet boundary.
type spanKind uint8

const (
	kSimRun          spanKind = iota // Engine.RunUntil / traffic.Engine.Run: the root
	kNetemEnqueue                    // Link.HandlePacket: sender->bottleneck, receiver->reverse
	kTransportTxAck                  // Sender.HandlePacket: reverse link -> sender
	kTransportTxFire                 // sender timers (pacing, loss/PTO) and Start
	kTransportRx                     // Receiver.HandlePacket: bottleneck -> receiver
	kTransportRxFire                 // receiver delayed-ACK timer
	kCCOnAck                         // Controller.OnAck
	kCCOnLoss                        // Controller.OnLoss, OnSpuriousLoss
	kCCOnSent                        // Controller.OnPacketSent
	kMetricsRecord                   // FlowTrace.AddRTT / AddDelivery
	kTelemetry                       // telemetry.Tracer sink (qlog JSONL)
	kTraceCSV                        // bottleneck tap sink (packet CSV)
	nKinds
)

var kindNames = [nKinds]string{
	"sim.run", "netem.enqueue", "transport.tx_ack", "transport.tx_fire",
	"transport.rx", "transport.rx_fire", "cc.on_ack", "cc.on_loss",
	"cc.on_sent", "metrics.record", "telemetry.sink", "trace.csv",
}

// aggregate is one (kind, parent) cell of a trial's per-packet spans.
type aggregate struct {
	Count   int64
	TotalNs int64
	SelfNs  int64
}

type hotFrame struct {
	kind  spanKind
	start int64
	child int64
}

// hot aggregates per-packet spans for one trial. When off, enter and exit
// return at once: the interposers stay attached but idle, which is how the
// fidelity test shows they do not perturb a trial.
type hot struct {
	on    bool
	base  time.Time
	depth int
	stack [32]hotFrame
	// aggs[kind][parent]; parent nKinds means "no parent" (the root).
	aggs [nKinds][nKinds + 1]aggregate
	// ccCalls counts every Controller method call, getters included; only
	// the four event methods are timed, so the getters' cost stays in the
	// calling transport span where an untraced run pays it too.
	ccCalls int64
}

func newHot(on bool) *hot { return &hot{on: on, base: time.Now()} }

func (h *hot) enter(k spanKind) {
	if !h.on {
		return
	}
	f := &h.stack[h.depth]
	h.depth++
	f.kind, f.child = k, 0
	f.start = int64(time.Since(h.base))
}

func (h *hot) exit() {
	if !h.on {
		return
	}
	now := int64(time.Since(h.base))
	h.depth--
	f := &h.stack[h.depth]
	dur := now - f.start
	parent := nKinds
	if h.depth > 0 {
		p := &h.stack[h.depth-1]
		p.child += dur
		parent = p.kind
	}
	a := &h.aggs[f.kind][parent]
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur - f.child
}

// byKind folds the parents away: one aggregate per kind.
func (h *hot) byKind() [nKinds]aggregate {
	var out [nKinds]aggregate
	for k := range h.aggs {
		for _, a := range h.aggs[k] {
			out[k].Count += a.Count
			out[k].TotalNs += a.TotalNs
			out[k].SelfNs += a.SelfNs
		}
	}
	return out
}

// span is one coarse span, kept individually.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // span id, -1 for a root
	Op      int    `json:"op"`     // the cell's index in the pass: spans of one op share it
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// aggSpan is one per-trial aggregate of per-packet spans in the file.
type aggSpan struct {
	Trial   int    `json:"trial"` // id of the enclosing trial span
	Name    string `json:"name"`
	Parent  string `json:"parent"` // kind name, "" for the root
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// recorder holds every span of a traced run in memory until the run ends.
type recorder struct {
	base  time.Time
	spans []span
	open  []int // stack of open span ids
	aggs  []aggSpan
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string, op int) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Op: op, StartNs: int64(time.Since(r.base))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) time.Duration {
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("benchmark: span ends out of order") // a harness bug, never input
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.EndNs = int64(time.Since(r.base))
	return time.Duration(s.EndNs - s.StartNs)
}

// attach files a trial's per-packet aggregates under its trial span.
func (r *recorder) attach(trial int, h *hot) {
	for k := range h.aggs {
		for p, a := range h.aggs[k] {
			if a.Count == 0 {
				continue
			}
			parent := ""
			if p < int(nKinds) {
				parent = kindNames[p]
			}
			r.aggs = append(r.aggs, aggSpan{trial, kindNames[k], parent, a.Count, a.TotalNs, a.SelfNs})
		}
	}
}
