package metrics

import (
	"sync/atomic"
	"time"
)

// Window is a rolling-window histogram: a ring of fixed sub-interval
// slots, each an epoch-tagged Histogram over the window's bounds. A
// count-only window (shed totals) is one with no finite bounds. The
// observe path is wait-free and allocation-free — one epoch load
// (plus a CAS when the slot rolls over to a new sub-interval) and one
// Histogram.Observe; no locks, no background goroutine. Snapshot
// merges the slots whose epoch still falls inside the window, so
// expiry is lazy and the read side never mutates shared state.
//
// Two races are accepted and benign, both confined to a slot
// boundary: an observation racing the CAS that recycles its slot may
// be dropped, and an observation landing just after its sub-interval
// ended may be counted in the slot that replaced it. Both move a
// single sample by at most one sub-interval of a window that is
// itself an approximation.
type Window struct {
	slotDur int64 // nanoseconds per sub-interval slot
	bounds  []float64
	slots   []windowSlot
	now     func() time.Time
}

type windowSlot struct {
	epoch atomic.Int64
	Histogram
}

// NewWindow builds a rolling window covering span, split into slots
// sub-intervals. buckets are histogram upper bounds (nil for a
// count-only window); they follow the same validation rules as
// Registry.Histogram. Panics on a non-positive span or slot count.
func NewWindow(span time.Duration, slots int, buckets []float64) *Window {
	if span <= 0 || slots <= 0 {
		panic("metrics: NewWindow requires a positive span and slot count")
	}
	if len(buckets) > 0 {
		buckets = validBuckets("window", buckets)
	}
	w := &Window{
		slotDur: int64(span) / int64(slots),
		bounds:  buckets,
		slots:   make([]windowSlot, slots),
		now:     time.Now,
	}
	if w.slotDur <= 0 {
		panic("metrics: NewWindow span shorter than its slot count")
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
		w.slots[i].init(&w.bounds)
	}
	return w
}

// SetNow injects the clock, for deterministic tests. Call before any
// Observe or Snapshot; the function must be safe for concurrent use.
func (w *Window) SetNow(now func() time.Time) { w.now = now }

// Observe records v into the current sub-interval slot. Wait-free.
func (w *Window) Observe(v float64) {
	e := w.now().UnixNano() / w.slotDur
	s := &w.slots[int(e%int64(len(w.slots)))]
	for {
		old := s.epoch.Load()
		if old >= e {
			break // current (or a racing clock ran ahead); record here
		}
		if s.epoch.CompareAndSwap(old, e) {
			// This observer claimed the rollover and recycles the slot.
			// A concurrent Observe between the CAS and the reset can
			// lose its sample to it — the benign boundary race
			// documented on Window.
			s.reset()
			break
		}
	}
	s.Observe(v)
}

// Snapshot merges every slot whose epoch is still inside the window.
// The newest slot is usually partial, so the effective span ranges
// between span−slot and span.
func (w *Window) Snapshot() HistogramSnapshot {
	cur := w.now().UnixNano() / w.slotDur
	min := cur - int64(len(w.slots)) + 1
	snap := HistogramSnapshot{Bounds: w.bounds, Counts: make([]uint64, len(w.bounds)+1)}
	for i := range w.slots {
		if e := w.slots[i].epoch.Load(); e >= min && e <= cur {
			snap.addFrom(&w.slots[i].Histogram)
		}
	}
	return snap
}

// Count returns the number of observations currently in the window.
func (w *Window) Count() uint64 { return w.Snapshot().Count }
