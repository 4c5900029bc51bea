package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket edges (le semantics); an implicit +Inf bucket catches the
// rest. It also keeps the count, the sum and the exact maximum, so a
// snapshot answers mean and tail questions without a raw sample.
//
// It is the package's only histogram: registry series, rolling-window
// slots and the load generator's client-side latencies are all this
// type. Only the bucket layout differs between them, and a layout is
// shared read-only data: bounds points at the slice its owner (the
// registry family, the window) holds, so a window's ring of slots
// carries one pointer per slot, not one slice header.
type Histogram struct {
	bounds *[]float64      // ascending finite bounds, shared
	counts []atomic.Uint64 // len(*bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits; starts at 0
}

// NewHistogram returns an unregistered histogram over buckets
// (ascending upper bounds; a trailing +Inf is implicit and dropped).
// nil or empty buckets give a count-only histogram: one +Inf bucket.
// Panics on bounds that are not strictly ascending.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) > 0 {
		buckets = validBuckets("histogram", buckets)
	}
	h := &Histogram{}
	h.init(&buckets)
	return h
}

// init sets up h over already validated bounds.
func (h *Histogram) init(bounds *[]float64) {
	h.bounds, h.counts = bounds, make([]atomic.Uint64, len(*bounds)+1)
}

// Observe records one value: one bucket increment plus the count, sum
// and max. Wait-free apart from the CAS loops on sum and max, and
// allocation-free.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(*h.bounds, v)].Add(1) // first bound >= v
	h.count.Add(1)
	addFloat(&h.sum, v)
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Snapshot copies the histogram. Reads race benignly with concurrent
// observations: a snapshot taken mid-Observe may see the bucket but
// not yet the count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: *h.bounds, Counts: make([]uint64, len(h.counts))}
	s.addFrom(h)
	return s
}

// reset zeroes every count, for a recycled window slot.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, or the
// merge of several that share one bucket layout.
type HistogramSnapshot struct {
	Bounds []float64 // ascending finite upper bounds, shared read-only
	Counts []uint64  // per-bucket counts, len(Bounds)+1 with +Inf last
	Count  uint64
	Sum    float64
	Max    float64 // exact largest observation (0 when none exceeds 0)
}

// addFrom merges a live histogram over the same bounds into s.
func (s *HistogramSnapshot) addFrom(h *Histogram) {
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Count += h.count.Load()
	s.Sum += math.Float64frombits(h.sum.Load())
	s.Max = max(s.Max, math.Float64frombits(h.max.Load()))
}

// Add merges o into s bucket by bucket. A zero snapshot on either
// side carries no layout: s adopts o's, and adding a zero o is a
// no-op. Otherwise both must share bounds, and Add panics if they do
// not — a programming error, like a bucket-mismatched registration.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	if len(o.Counts) == 0 {
		return
	}
	if len(s.Counts) == 0 {
		s.Bounds, s.Counts = o.Bounds, make([]uint64, len(o.Counts))
	}
	if len(o.Counts) != len(s.Counts) || !equalBuckets(s.Bounds, o.Bounds) {
		panic("metrics: HistogramSnapshot.Add across different bucket layouts")
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Max = max(s.Max, o.Max)
}

// Cumulative returns the running totals of Counts in bound order with
// the +Inf bucket last — exactly the le series of the exposition.
func (s HistogramSnapshot) Cumulative() []uint64 {
	out := make([]uint64, len(s.Counts))
	var acc uint64
	for i, c := range s.Counts {
		acc += c
		out[i] = acc
	}
	return out
}

// Mean returns Sum/Count, zero when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the value at quantile q in [0,1], zero when the
// snapshot is empty. It reports the upper bound of the bucket holding
// the ⌈q·Count⌉-th observation, so it never under-reports. When that
// bound overshoots the exact maximum, or the observation sits in the
// +Inf bucket, the maximum is the tighter honest answer.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(s.Count))), 1)
	var cum uint64
	for i, c := range s.Counts {
		if cum += c; cum >= target {
			if i < len(s.Bounds) && s.Bounds[i] < s.Max {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Max
}

// DefLatencyBuckets is the default latency histogram layout, in
// seconds: half a millisecond through 10 s, roughly logarithmic.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// GeometricBuckets returns the bounds start, start·factor,
// start·factor², … below limit: a log-linear layout whose relative
// resolution is factor−1 everywhere. Panics unless 0 < start < limit
// and factor > 1.
func GeometricBuckets(start, limit, factor float64) []float64 {
	if !(start > 0 && start < limit && factor > 1) {
		panic("metrics: GeometricBuckets requires 0 < start < limit and factor > 1")
	}
	var out []float64
	for b := start; b < limit; b *= factor {
		out = append(out, b)
	}
	return out
}

// addFloat CAS-adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

func validBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s with no buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %s buckets not strictly ascending", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], 1) {
		buckets = buckets[:len(buckets)-1] // +Inf is implicit
	}
	return append([]float64(nil), buckets...)
}

func equalBuckets(a, b []float64) bool {
	if n := len(b); n > 0 && math.IsInf(b[n-1], 1) {
		b = b[:n-1]
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
