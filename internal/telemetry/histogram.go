package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// The histogram bucket schema is fixed and shared by every Histogram in
// the process (and, because it is versioned data, by every process in a
// fleet): log-spaced upper bounds growing ~19% per bucket, generated by
// deterministic integer arithmetic so the schema is bit-identical on
// every platform. A shared schema is what makes histograms merge-able —
// fleet aggregation is an element-wise add, with no interpolation and no
// precision loss.
//
// Values are unitless int64s; by convention the hot-seam histograms
// record microseconds (the ".._us" suffix in their names). The top bound
// covers ~10^12 µs (≈ 11.5 days) before the overflow bucket.
const (
	// HistSchemaVersion identifies the bucket layout on the wire (beat
	// frames carry raw bucket counts). Bump it if histBounds ever change.
	HistSchemaVersion = 1
	histMaxBound      = int64(1e12)
)

// histBounds holds the inclusive upper bound of each bucket, ascending.
// counts has len(histBounds)+1 entries; the final bucket is +Inf.
var histBounds = func() []int64 {
	var b []int64
	for cur := int64(1); ; {
		b = append(b, cur)
		if cur >= histMaxBound {
			break
		}
		next := cur * 19 / 16 // ×1.1875, exact integer arithmetic
		if next <= cur {
			next = cur + 1
		}
		cur = next
	}
	return b
}()

// HistogramBound returns bucket i's inclusive upper bound, or -1 for the
// overflow (+Inf) bucket.
func HistogramBound(i int) int64 {
	if i < 0 || i >= len(histBounds) {
		return -1
	}
	return histBounds[i]
}

// bucketIndex locates the bucket whose range contains v (binary search
// over the upper bounds; values ≤ 0 land in bucket 0).
func bucketIndex(v int64) int {
	lo, hi := 0, len(histBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if histBounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // == len(histBounds) → overflow bucket
}

// Histogram is a fixed-schema, log-spaced-bucket distribution. Observe is
// lock-free (one atomic add per bucket plus sum/count), snapshots are
// deterministic given the same observations, and two histograms merge by
// adding bucket counts — the schema is process-global, so merging never
// loses precision.
type Histogram struct {
	counts []atomic.Int64 // len(histBounds)+1; last bucket is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// NewHistogram returns an empty histogram on the shared bucket schema.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(histBounds)+1)}
}

// Observe records one value. Safe for concurrent callers.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in microseconds (the convention for
// the "*_us" latency histograms). Sub-microsecond durations land in the
// first bucket.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures the histogram's current state. The snapshot is
// internally consistent enough for monotonic readers (buckets are read
// after sum/count, so quantiles never overshoot the reported count).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		SchemaVersion: HistSchemaVersion,
		Sum:           h.sum.Load(),
		Count:         h.count.Load(),
	}
	total := int64(0)
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Idx: i, N: n})
			total += n
		}
	}
	// Under concurrent Observe the buckets may have advanced past the
	// count read above; clamp so cumulative math stays consistent.
	if total > s.Count {
		s.Count = total
	}
	return s
}

// HistBucket is one non-empty bucket in a snapshot: the schema bucket
// index and its observation count. Sparse encoding keeps beat frames and
// status lines small — most of the ~150 buckets are empty.
type HistBucket struct {
	Idx int   `json:"i"`
	N   int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, suitable for
// JSON transport (beat frames) and deterministic quantile math.
type HistogramSnapshot struct {
	Name          string       `json:"name,omitempty"`
	SchemaVersion int          `json:"schema,omitempty"`
	Count         int64        `json:"count"`
	Sum           int64        `json:"sum"`
	Buckets       []HistBucket `json:"buckets,omitempty"`
}

// Quantile returns the value at quantile q (0 < q ≤ 1): the upper bound
// of the bucket containing the ⌈q·count⌉-th observation. Deterministic —
// the same observations always yield the same answer, with relative
// error bounded by the ~19% bucket growth. Returns 0 for an empty
// histogram; observations in the overflow bucket report the top bound.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 || q <= 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	cum := int64(0)
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= target {
			if b.Idx >= len(histBounds) {
				return histBounds[len(histBounds)-1]
			}
			return histBounds[b.Idx]
		}
	}
	return histBounds[len(histBounds)-1]
}

// Merge returns the element-wise sum of two snapshots — the distribution
// of the union of their observations. Merging is associative and
// commutative, so fleet-wide aggregation can fold worker snapshots in
// any order. The receiver's Name is kept.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Name:          s.Name,
		SchemaVersion: HistSchemaVersion,
		Count:         s.Count + o.Count,
		Sum:           s.Sum + o.Sum,
	}
	n := make(map[int]int64, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		n[b.Idx] += b.N
	}
	for _, b := range o.Buckets {
		n[b.Idx] += b.N
	}
	for i := 0; i <= len(histBounds); i++ {
		if c := n[i]; c > 0 {
			out.Buckets = append(out.Buckets, HistBucket{Idx: i, N: c})
		}
	}
	return out
}
