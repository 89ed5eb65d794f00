// Package netem emulates the paper's testbed network: fixed-rate links with
// droptail byte queues and constant propagation delay, composed into the
// dumbbell topology used for every conformance and fairness experiment
// (two senders sharing one bottleneck, uncongested reverse paths for ACKs).
//
// It replaces the physical 1 Gbps testbed shaped with tc/Mahimahi. All
// timing runs on the internal/sim virtual clock, so experiments are exactly
// reproducible.
package netem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Packet is the unit of transmission. The transport layer owns the
// semantic fields; netem only reads Size for serialization and queueing.
type Packet struct {
	Flow   int   // flow identifier assigned by the experiment
	Seq    int64 // transport packet number (unique per flow, per direction)
	Size   int   // bytes on the wire
	IsAck  bool  // true for pure-ACK packets (reverse path)
	SentAt sim.Time
	// Ack fields, populated when IsAck. LargestAcked is the highest data
	// packet number acknowledged; AckDelay is receiver-side delay; Ranges
	// encodes the acknowledged intervals (closed, descending).
	LargestAcked int64
	AckDelay     sim.Time
	Ranges       []AckRange
	// ECNCE counts Congestion Experienced marks seen by the receiver
	// (reserved for the ECN extension; zero in the paper's experiments).
	ECNCE int64
	// Corrupted marks a packet whose payload was damaged in flight
	// (internal/faults). The packet still occupies its full Size on every
	// link, but endpoints discard it on arrival, so the sender learns about
	// it only through loss detection — a different signal path than a
	// queue drop.
	Corrupted bool

	// pooled marks a packet obtained from GetPacket; only such packets are
	// recycled by ReleasePacket. Caller-constructed packets stay with the GC.
	pooled bool

	// linkEnq is the enqueue instant on the link currently carrying the
	// packet (for the Deliver tap's sojourn). A packet is owned by at most
	// one link between enqueue and delivery, so one field suffices even
	// when links are chained.
	linkEnq sim.Time
}

// pktPool recycles Packet objects across the hot send/ACK path. A two-flow
// trial moves tens of thousands of packets; without recycling every one is
// a fresh allocation (plus an ACK-range slice) that the GC must chase.
var pktPool = sync.Pool{New: func() any {
	poolNews.Add(1)
	return new(Packet)
}}

// Pool telemetry: gets/puts/news since process start. A persistent gap
// between gets and puts is a packet leak — some consumer is dropping
// pool-managed packets without releasing them.
var poolGets, poolPuts, poolNews atomic.Int64

// PoolStats reports packet-pool traffic: packets taken from the pool,
// packets returned, and fresh allocations (pool misses). gets-puts is the
// current number of live pool-managed packets.
func PoolStats() (gets, puts, news int64) {
	return poolGets.Load(), poolPuts.Load(), poolNews.Load()
}

// GetPacket returns a zeroed pool-managed packet. Its Ranges slice keeps
// the capacity from previous use, so per-ACK range storage is amortised.
// The packet must be handed back with ReleasePacket at its terminal point.
func GetPacket() *Packet {
	poolGets.Add(1)
	p := pktPool.Get().(*Packet)
	p.pooled = true
	return p
}

// ReleasePacket recycles a pool-managed packet. It is a no-op for nil and
// for caller-constructed packets, so endpoints can release unconditionally
// at their terminal points (consumption, queue drop, unknown-flow discard,
// injected loss). Releasing twice is guarded: the first call clears the
// pool marker.
func ReleasePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	poolPuts.Add(1)
	r := p.Ranges[:0]
	*p = Packet{Ranges: r}
	pktPool.Put(p)
}

// ClonePacket returns a pool-managed deep copy of pkt. The Ranges storage
// is copied, never aliased, so the clone and the original can be released
// independently (duplication-style impairments rely on this).
func ClonePacket(pkt *Packet) *Packet {
	cp := GetPacket()
	r := cp.Ranges
	*cp = *pkt
	cp.Ranges = append(r[:0], pkt.Ranges...)
	cp.pooled = true
	return cp
}

// AckRange is a closed interval [Smallest, Largest] of acknowledged packet
// numbers.
type AckRange struct {
	Smallest, Largest int64
}

// Handler consumes delivered packets.
type Handler interface {
	HandlePacket(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(pkt *Packet) { f(pkt) }

// LinkEvent describes something that happened to a packet at a link,
// delivered to taps for tracing.
type LinkEvent struct {
	Time    sim.Time
	Packet  *Packet
	Kind    EventKind
	QueueB  int      // queue occupancy in bytes after the event
	Sojourn sim.Time // enqueue-to-delivery time, set on Deliver
}

// EventKind enumerates link event types.
type EventKind int

// Link event kinds.
const (
	Enqueue EventKind = iota
	Drop
	Deliver
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Enqueue:
		return "enqueue"
	case Drop:
		return "drop"
	case Deliver:
		return "deliver"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Link models a fixed-rate serializing link with a droptail byte queue and
// constant propagation delay. A zero-capacity queue means unlimited.
type Link struct {
	eng      *sim.Engine
	rateBps  float64
	propag   sim.Time
	queueCap int // bytes; 0 => unlimited
	dst      Handler

	queuedBytes int // bytes accepted but not yet fully serialized
	queueHighB  int // peak queue occupancy over the link's lifetime
	busyUntil   sim.Time
	lastDeliver sim.Time

	jitter       sim.Time
	jitterRNG    *stats.RNG
	reorderProb  float64
	reorderDelay sim.Time

	// Stats.
	Delivered      uint64
	DeliveredBytes uint64
	Dropped        uint64
	DroppedBytes   uint64

	taps []func(LinkEvent)

	// txDoneFn/deliverFn are the per-packet event callbacks, bound once at
	// construction and scheduled with sim.Engine.AtArg: the two events every
	// packet costs (serialization done, propagation done) then allocate
	// nothing.
	txDoneFn  func(any)
	deliverFn func(any)
}

// LinkConfig configures a Link.
type LinkConfig struct {
	RateBps     float64  // serialization rate, bits per second (> 0)
	Propagation sim.Time // one-way propagation delay (>= 0)
	QueueBytes  int      // droptail queue capacity in bytes; 0 = unlimited
	// Jitter adds a uniformly distributed extra delay in [0, Jitter] to
	// each packet's propagation, drawn from JitterRNG. Delivery order is
	// still FIFO (jitter on a single path does not reorder packets).
	Jitter    sim.Time
	JitterRNG *stats.RNG
	// ReorderProb is the probability that a packet is delayed by an extra
	// ReorderDelay and allowed to be overtaken (out-of-order delivery, as
	// caused by NIC offloads, link-layer retransmissions, or multipath).
	// Requires JitterRNG when > 0.
	ReorderProb  float64
	ReorderDelay sim.Time
}

// NewLink creates a link that delivers packets to dst. It panics on an
// invalid configuration; NewLinkE is the validating, error-returning
// variant preferred by code that must degrade gracefully.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Handler) *Link {
	l, err := NewLinkE(eng, cfg, dst)
	if err != nil {
		panic(err.Error())
	}
	return l
}

// NewLinkE creates a link that delivers packets to dst, reporting
// configuration errors instead of panicking.
func NewLinkE(eng *sim.Engine, cfg LinkConfig, dst Handler) (*Link, error) {
	if eng == nil {
		return nil, fmt.Errorf("netem: nil engine")
	}
	if cfg.RateBps <= 0 {
		return nil, fmt.Errorf("netem: link rate must be positive, got %g bps", cfg.RateBps)
	}
	if cfg.Propagation < 0 {
		return nil, fmt.Errorf("netem: negative propagation delay %v", cfg.Propagation)
	}
	if dst == nil {
		return nil, fmt.Errorf("netem: nil destination handler")
	}
	if (cfg.Jitter > 0 || cfg.ReorderProb > 0) && cfg.JitterRNG == nil {
		return nil, fmt.Errorf("netem: Jitter/ReorderProb require JitterRNG")
	}
	if cfg.ReorderProb < 0 || cfg.ReorderProb > 1 {
		return nil, fmt.Errorf("netem: ReorderProb %g outside [0,1]", cfg.ReorderProb)
	}
	l := &Link{
		eng:          eng,
		rateBps:      cfg.RateBps,
		propag:       cfg.Propagation,
		queueCap:     cfg.QueueBytes,
		dst:          dst,
		jitter:       cfg.Jitter,
		jitterRNG:    cfg.JitterRNG,
		reorderProb:  cfg.ReorderProb,
		reorderDelay: cfg.ReorderDelay,
	}
	l.txDoneFn = l.onTxDone
	l.deliverFn = l.onDeliver
	return l, nil
}

// Tap registers fn to observe every link event. Taps run synchronously in
// event order.
func (l *Link) Tap(fn func(LinkEvent)) { l.taps = append(l.taps, fn) }

// QueueBytes returns the current queue occupancy in bytes (including the
// packet in service).
func (l *Link) QueueBytes() int { return l.queuedBytes }

// QueueHighwater returns the peak queue occupancy in bytes observed over
// the link's lifetime.
func (l *Link) QueueHighwater() int { return l.queueHighB }

// Capacity returns the configured droptail capacity (0 = unlimited).
func (l *Link) Capacity() int { return l.queueCap }

// serializationTime returns how long size bytes occupy the link.
func (l *Link) serializationTime(size int) sim.Time {
	return sim.Time(float64(size*8) / l.rateBps * float64(sim.Second))
}

// HandlePacket implements Handler: the packet arrives at the link's queue.
func (l *Link) HandlePacket(pkt *Packet) {
	now := l.eng.Now()
	if l.queueCap > 0 && l.queuedBytes+pkt.Size > l.queueCap {
		l.Dropped++
		l.DroppedBytes += uint64(pkt.Size)
		l.emit(LinkEvent{Time: now, Packet: pkt, Kind: Drop, QueueB: l.queuedBytes})
		ReleasePacket(pkt) // terminal: droptail discard
		return
	}
	l.queuedBytes += pkt.Size
	if l.queuedBytes > l.queueHighB {
		l.queueHighB = l.queuedBytes
	}
	l.emit(LinkEvent{Time: now, Packet: pkt, Kind: Enqueue, QueueB: l.queuedBytes})

	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txEnd := start + l.serializationTime(pkt.Size)
	l.busyUntil = txEnd
	pkt.linkEnq = now
	l.eng.AtArg(txEnd, l.txDoneFn, pkt)
}

// onTxDone fires when a packet's last bit leaves the queue: it frees the
// queue space and schedules delivery after propagation (plus jitter and
// reordering, when configured).
func (l *Link) onTxDone(arg any) {
	pkt := arg.(*Packet)
	l.queuedBytes -= pkt.Size
	deliverAt := l.eng.Now() + l.propag
	if l.jitter > 0 {
		deliverAt += sim.Time(l.jitterRNG.Float64() * float64(l.jitter))
	}
	if l.reorderProb > 0 && l.jitterRNG.Float64() < l.reorderProb {
		// Out-of-order delivery: this packet is held back and later
		// packets may overtake it.
		deliverAt += l.reorderDelay
	} else {
		// Preserve FIFO delivery for the common case.
		if deliverAt < l.lastDeliver {
			deliverAt = l.lastDeliver
		}
		l.lastDeliver = deliverAt
	}
	l.eng.AtArg(deliverAt, l.deliverFn, pkt)
}

// onDeliver fires when a packet reaches the far end of the link.
func (l *Link) onDeliver(arg any) {
	pkt := arg.(*Packet)
	l.Delivered++
	l.DeliveredBytes += uint64(pkt.Size)
	l.emit(LinkEvent{
		Time:    l.eng.Now(),
		Packet:  pkt,
		Kind:    Deliver,
		QueueB:  l.queuedBytes,
		Sojourn: l.eng.Now() - pkt.linkEnq,
	})
	l.dst.HandlePacket(pkt)
}

func (l *Link) emit(ev LinkEvent) {
	for _, t := range l.taps {
		t(ev)
	}
}

// Demux routes packets to per-flow handlers by Packet.Flow.
type Demux struct {
	handlers map[int]Handler
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux { return &Demux{handlers: make(map[int]Handler)} }

// Register binds flow id to h, replacing any previous binding.
func (d *Demux) Register(flow int, h Handler) { d.handlers[flow] = h }

// Unregister removes flow's binding. Packets still in flight for the flow
// are then discarded (and released) on arrival, exactly like traffic for a
// closed socket — the departure half of a flow churn process.
func (d *Demux) Unregister(flow int) { delete(d.handlers, flow) }

// HandlePacket implements Handler. Packets for unknown flows are dropped
// silently (mirrors a host discarding traffic for a closed socket).
func (d *Demux) HandlePacket(pkt *Packet) {
	if h, ok := d.handlers[pkt.Flow]; ok {
		h.HandlePacket(pkt)
		return
	}
	ReleasePacket(pkt) // terminal: no socket for this flow
}

// Dumbbell is the experiment topology: every sender's data packets share
// one bottleneck link; each flow has a private, uncongested reverse path
// for ACKs. Per the paper, both flows see the same base RTT.
type Dumbbell struct {
	Eng        *sim.Engine
	Bottleneck *Link
	reverse    map[int]*Link
	fwdDemux   *Demux
	revDemux   *Demux
	cfg        DumbbellConfig
}

// DumbbellConfig sets the shared network parameters, mirroring §4 of the
// paper: a constant bottleneck bandwidth, a base RTT split across the
// forward and reverse propagation, and a droptail buffer expressed in
// bytes (the caller converts BDP multiples).
type DumbbellConfig struct {
	BottleneckBps float64
	BaseRTT       sim.Time
	QueueBytes    int
	// ReverseBps is the reverse-path rate; defaults to 40x the bottleneck
	// when zero so ACKs are effectively uncongested (the testbed's 1 Gbps
	// ethernet vs the 20-100 Mbps shaped bottleneck).
	ReverseBps float64
	// Jitter adds per-packet uniform [0, Jitter] delay on every link,
	// modelling natural network variation ("wild" mode uses larger
	// values). Requires Rng when non-zero.
	Jitter sim.Time
	Rng    *stats.RNG
	// ReorderProb/ReorderDelay enable occasional out-of-order delivery on
	// the forward (data) path; see LinkConfig.
	ReorderProb  float64
	ReorderDelay sim.Time
}

// NewDumbbellE builds the topology, reporting configuration errors. Flows
// are attached with AttachFlow.
func NewDumbbellE(eng *sim.Engine, cfg DumbbellConfig) (*Dumbbell, error) {
	if cfg.ReverseBps == 0 {
		cfg.ReverseBps = cfg.BottleneckBps * 40
	}
	d := &Dumbbell{
		Eng:      eng,
		reverse:  make(map[int]*Link),
		fwdDemux: NewDemux(),
		revDemux: NewDemux(),
		cfg:      cfg,
	}
	// Forward path carries data through the shared droptail bottleneck and
	// half the base RTT of propagation.
	lc := LinkConfig{
		RateBps:     cfg.BottleneckBps,
		Propagation: cfg.BaseRTT / 2,
		QueueBytes:  cfg.QueueBytes,
	}
	if cfg.Jitter > 0 || cfg.ReorderProb > 0 {
		lc.Jitter = cfg.Jitter
		lc.ReorderProb = cfg.ReorderProb
		lc.ReorderDelay = cfg.ReorderDelay
		if cfg.Rng == nil {
			return nil, fmt.Errorf("netem: dumbbell Jitter/ReorderProb require Rng")
		}
		lc.JitterRNG = cfg.Rng.Fork()
	}
	bn, err := NewLinkE(eng, lc, d.fwdDemux)
	if err != nil {
		return nil, fmt.Errorf("netem: bottleneck: %w", err)
	}
	d.Bottleneck = bn
	return d, nil
}

// AttachFlow wires a sender/receiver pair into the topology. dataSink
// receives the flow's data packets after the bottleneck; ackSink receives
// the flow's ACKs after the reverse path. The returned handlers are where
// the flow's endpoints inject traffic: SendData at the sender, SendAck at
// the receiver.
func (d *Dumbbell) AttachFlow(flow int, dataSink, ackSink Handler) (sendData, sendAck Handler) {
	d.fwdDemux.Register(flow, dataSink)
	rc := LinkConfig{
		RateBps:     d.cfg.ReverseBps,
		Propagation: d.cfg.BaseRTT / 2,
		QueueBytes:  0, // uncongested
	}
	if d.cfg.Jitter > 0 {
		rc.Jitter = d.cfg.Jitter
		rc.JitterRNG = d.cfg.Rng.Fork()
	}
	rev := NewLink(d.Eng, rc, d.revDemux)
	d.reverse[flow] = rev
	d.revDemux.Register(flow, ackSink)
	return d.Bottleneck, rev
}

// ReverseLink exposes a flow's reverse link (for taps/tests).
func (d *Dumbbell) ReverseLink(flow int) *Link { return d.reverse[flow] }

// BDPBytes computes a bandwidth-delay product in bytes.
func BDPBytes(rateBps float64, rtt sim.Time) int {
	return int(rateBps * rtt.Seconds() / 8)
}
