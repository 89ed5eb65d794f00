package transport

import (
	"sort"

	"repro/internal/netem"
	"repro/internal/sim"
)

// ReceiverStats aggregates receiver-side counters.
type ReceiverStats struct {
	PacketsReceived int64
	BytesReceived   int64
	AcksSent        int64
	// PacketsCorrupted counts arrivals discarded because the fault layer
	// damaged them in flight (netem.Packet.Corrupted). They are never
	// acknowledged, so the sender sees them as losses.
	PacketsCorrupted int64
}

// DeliveredSample records a data packet arrival for throughput measurement.
type DeliveredSample struct {
	Time  sim.Time
	Bytes int
}

// Receiver consumes data packets and produces ACKs according to the
// configured ACK policy: an ACK is sent after every AckEveryN-th data
// packet, or when MaxAckDelay expires with unacknowledged data pending.
type Receiver struct {
	clk  Clock
	cfg  Config
	out  netem.Handler // reverse path toward the sender
	flow int

	// Received sequence tracking as a sorted set of closed intervals,
	// newest last.
	ranges []netem.AckRange

	largestReceived   int64
	largestReceivedAt sim.Time
	unackedCount      int
	ackTimer          TimerHandle
	firstUnackedAt    sim.Time

	Stats ReceiverStats

	onDeliver []func(DeliveredSample)
}

// NewReceiver constructs a receiver whose ACKs go to out. It runs on the
// discrete-event engine; use NewReceiverWithClock for other timelines.
func NewReceiver(eng *sim.Engine, cfg Config, out netem.Handler, flow int) *Receiver {
	return NewReceiverWithClock(SimClock(eng), cfg, out, flow)
}

// NewReceiverWithClock constructs a receiver on an arbitrary clock.
func NewReceiverWithClock(clk Clock, cfg Config, out netem.Handler, flow int) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{
		clk:             clk,
		cfg:             cfg,
		out:             out,
		flow:            flow,
		largestReceived: -1,
	}
	r.ackTimer = clk.NewTimer(r.sendAck)
	return r
}

// OnDeliver registers a hook invoked for every received data packet.
func (r *Receiver) OnDeliver(fn func(DeliveredSample)) {
	r.onDeliver = append(r.onDeliver, fn)
}

// Stop disarms the delayed-ACK timer (flow departure). The receiver still
// accepts packets if handed any; callers unregister it from the demux
// first.
func (r *Receiver) Stop() { r.ackTimer.Stop() }

// ResetFlow re-initializes a recycled receiver in place for a new flow,
// preserving the ACK-range slice's capacity and the timer handle. After
// ResetFlow the receiver is indistinguishable from one freshly built by
// NewReceiverWithClock with the same arguments.
// Rebind moves the receiver onto a new clock, for pools that recycle
// receivers across simulation runs. See Sender.Rebind.
func (r *Receiver) Rebind(clk Clock) {
	r.clk = clk
	if !rebindTimer(r.ackTimer, clk) {
		r.ackTimer = clk.NewTimer(r.sendAck)
	}
}

func (r *Receiver) ResetFlow(cfg Config, out netem.Handler, flow int) {
	r.ackTimer.Stop()
	r.cfg = cfg.withDefaults()
	r.out = out
	r.flow = flow
	r.ranges = r.ranges[:0]
	r.largestReceived = -1
	r.largestReceivedAt = 0
	r.unackedCount = 0
	r.firstUnackedAt = 0
	r.Stats = ReceiverStats{}
	r.onDeliver = r.onDeliver[:0]
}

// HandlePacket implements netem.Handler for data packets.
func (r *Receiver) HandlePacket(pkt *netem.Packet) {
	// The receiver is the terminal consumer on the data path, so any
	// pool-managed packet is recycled on every return below.
	defer netem.ReleasePacket(pkt)
	if pkt.IsAck {
		return
	}
	if pkt.Corrupted {
		// A damaged packet consumed its slot on every link but carries no
		// usable payload: drop it without acknowledging, leaving the sender
		// to detect the gap through loss detection.
		r.Stats.PacketsCorrupted++
		return
	}
	now := r.clk.Now()
	r.Stats.PacketsReceived++
	r.Stats.BytesReceived += int64(pkt.Size)
	r.insertSeq(pkt.Seq)
	if pkt.Seq > r.largestReceived {
		r.largestReceived = pkt.Seq
		r.largestReceivedAt = now
	}
	for _, fn := range r.onDeliver {
		fn(DeliveredSample{Time: now, Bytes: pkt.Size})
	}
	if r.unackedCount == 0 {
		r.firstUnackedAt = now
	}
	r.unackedCount++
	if r.unackedCount >= r.cfg.AckEveryN {
		r.sendAck()
		return
	}
	if !r.ackTimer.Armed() {
		r.ackTimer.Reset(now + r.cfg.MaxAckDelay)
	}
}

// insertSeq adds seq to the interval set, merging neighbours.
func (r *Receiver) insertSeq(seq int64) {
	// Binary search for the insertion position (ranges sorted ascending).
	i := sort.Search(len(r.ranges), func(i int) bool {
		return r.ranges[i].Largest >= seq
	})
	if i < len(r.ranges) && r.ranges[i].Smallest <= seq {
		return // duplicate
	}
	// Try extending the right neighbour downward.
	if i < len(r.ranges) && r.ranges[i].Smallest == seq+1 {
		r.ranges[i].Smallest = seq
		// Merge with the left neighbour if now adjacent.
		if i > 0 && r.ranges[i-1].Largest == seq-1 {
			r.ranges[i-1].Largest = r.ranges[i].Largest
			r.ranges = append(r.ranges[:i], r.ranges[i+1:]...)
		}
		return
	}
	// Try extending the left neighbour upward.
	if i > 0 && r.ranges[i-1].Largest == seq-1 {
		r.ranges[i-1].Largest = seq
		return
	}
	// Fresh singleton interval.
	r.ranges = append(r.ranges, netem.AckRange{})
	copy(r.ranges[i+1:], r.ranges[i:])
	r.ranges[i] = netem.AckRange{Smallest: seq, Largest: seq}
}

// sendAck emits an ACK packet covering the most recent ranges.
func (r *Receiver) sendAck() {
	if r.largestReceived < 0 {
		return
	}
	now := r.clk.Now()
	r.ackTimer.Stop()
	ackDelay := now - r.largestReceivedAt

	// Newest ranges first, bounded by MaxAckRanges. The pooled packet's
	// Ranges slice keeps its capacity across recycles, so steady-state ACK
	// generation allocates nothing.
	n := len(r.ranges)
	count := n
	if count > r.cfg.MaxAckRanges {
		count = r.cfg.MaxAckRanges
	}
	pkt := netem.GetPacket()
	pkt.Flow = r.flow
	pkt.IsAck = true
	pkt.Size = r.cfg.AckPacketBytes
	pkt.SentAt = now
	pkt.LargestAcked = r.largestReceived
	pkt.AckDelay = ackDelay
	for i := n - 1; i >= n-count; i-- {
		pkt.Ranges = append(pkt.Ranges, r.ranges[i])
	}

	// Old fully-acked history can be compacted: keep at most 4x the
	// advertised ranges so memory stays bounded on long runs.
	if n > 4*r.cfg.MaxAckRanges {
		r.ranges = append([]netem.AckRange(nil), r.ranges[n-2*r.cfg.MaxAckRanges:]...)
	}

	r.unackedCount = 0
	r.Stats.AcksSent++
	r.out.HandlePacket(pkt)
}
