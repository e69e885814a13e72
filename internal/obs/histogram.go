package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DurationBuckets are the default latency bucket upper bounds, in
// seconds: 100µs to 10s, roughly 2.5x apart — wide enough to cover an
// fsync on any disk and a multi-second join.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets are the default size bucket upper bounds (batch sizes,
// candidate counts): powers of four from 1 to 64k.
var CountBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// Histogram is a fixed-bucket histogram. Observe is lock-free (one
// atomic add on its bucket plus the sum); bucket bounds are fixed at
// creation. A nil Histogram is a valid no-op instrument.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram builds a histogram, deduplicating and sorting bounds and
// dropping a trailing +Inf (the overflow bucket is implicit).
func newHistogram(name, help string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	dst := b[:0]
	for _, v := range b {
		if math.IsInf(v, +1) || math.IsNaN(v) {
			continue
		}
		if len(dst) > 0 && dst[len(dst)-1] == v {
			continue
		}
		dst = append(dst, v)
	}
	b = dst
	return &Histogram{
		name:   name,
		help:   help,
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value. Bucket upper bounds are inclusive
// (Prometheus `le` semantics): a value exactly on a boundary lands in
// that boundary's bucket. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v; len(bounds) is the +Inf
	// overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds. A zero
// start is ignored — the pairing idiom is
//
//	t0 := m.startTimer()        // returns zero time when m == nil
//	...
//	m.someHist.ObserveSince(t0)
//
// so a disabled metrics struct never calls time.Now at all.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// snapshot copies the histogram's current state. Count is the total of the
// bucket counts as read here, not a counter of its own: an exposition's
// +Inf bucket must equal its _count, and two values read at different
// moments under concurrent Observes do not. (Sum may run a few
// observations ahead of or behind the buckets; no scraper checks it
// against them.)
func (h *Histogram) snapshot() HistogramSnap {
	snap := HistogramSnap{
		Name:   h.name,
		Help:   h.help,
		Bounds: h.bounds,
		Sum:    math.Float64frombits(h.sum.Load()),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
		snap.Count += snap.Counts[i]
	}
	return snap
}

// HistogramSnap is a histogram's point-in-time state. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf overflow
// bucket.
type HistogramSnap struct {
	Name   string
	Help   string
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank. Values in the
// overflow bucket report the last finite bound (the estimate saturates).
// Returns 0 when the histogram is empty.
func (h HistogramSnap) Quantile(q float64) float64 {
	total := int64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := float64(0)
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}
