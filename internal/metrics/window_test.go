package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a goroutine-safe monotone clock for Window tests.
type fakeClock struct {
	ns atomic.Int64
}

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func newTestWindow(t *testing.T, span time.Duration, slots int, buckets []float64) (*Window, *fakeClock) {
	t.Helper()
	w := NewWindow(span, slots, buckets)
	clk := &fakeClock{}
	clk.ns.Store(int64(24 * time.Hour)) // away from epoch 0 so slot -1 sentinels never match
	w.SetNow(clk.now)
	return w, clk
}

func TestWindowExpiry(t *testing.T) {
	w, clk := newTestWindow(t, time.Minute, 6, []float64{0.01, 0.1, 1})

	w.Observe(0.05)
	w.Observe(0.5)
	if got := w.Count(); got != 2 {
		t.Fatalf("fresh count = %d, want 2", got)
	}
	snap := w.Snapshot()
	if snap.Sum != 0.55 || snap.Max != 0.5 {
		t.Fatalf("snapshot sum=%v max=%v", snap.Sum, snap.Max)
	}

	// Half a window later both points are still visible.
	clk.advance(30 * time.Second)
	w.Observe(0.005)
	if got := w.Count(); got != 3 {
		t.Fatalf("mid-window count = %d, want 3", got)
	}

	// A full span after the first observations only the newer one remains.
	clk.advance(31 * time.Second)
	if got := w.Count(); got != 1 {
		t.Fatalf("post-expiry count = %d, want 1", got)
	}

	// And far in the future the window drains to empty without any writer.
	clk.advance(time.Hour)
	if got := w.Count(); got != 0 {
		t.Fatalf("drained count = %d, want 0", got)
	}
}

func TestWindowSlotRecycling(t *testing.T) {
	w, clk := newTestWindow(t, time.Minute, 6, []float64{0.01, 0.1, 1})

	// Fill a slot, come back exactly one ring revolution later: the
	// same slot index must be recycled, not accumulated into.
	w.Observe(0.5)
	clk.advance(time.Minute)
	w.Observe(0.02)
	snap := w.Snapshot()
	if snap.Count != 1 || snap.Sum != 0.02 {
		t.Fatalf("recycled slot snapshot count=%d sum=%v, want 1/0.02", snap.Count, snap.Sum)
	}
}

func TestWindowQuantileConservative(t *testing.T) {
	w, _ := newTestWindow(t, time.Minute, 6, []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		w.Observe(0.002) // first bucket
	}
	for i := 0; i < 10; i++ {
		w.Observe(0.7) // third bucket
	}
	snap := w.Snapshot()
	if got := snap.Quantile(0.5); got != 0.01 {
		t.Fatalf("p50 = %v, want bucket bound 0.01", got)
	}
	// p99 lands in the 0.1–1 bucket; the exact max (0.7) is tighter
	// than the 1.0 bound and must win.
	if got := snap.Quantile(0.99); got != 0.7 {
		t.Fatalf("p99 = %v, want exact max 0.7", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestWindowCountOnly(t *testing.T) {
	w, clk := newTestWindow(t, time.Minute, 6, nil)
	for i := 0; i < 5; i++ {
		w.Observe(1)
	}
	if got := w.Count(); got != 5 {
		t.Fatalf("count-only window count = %d, want 5", got)
	}
	if snap := w.Snapshot(); len(snap.Bounds) != 0 || len(snap.Counts) != 1 {
		t.Fatalf("count-only window has bounds %v, counts %v; want only the +Inf bucket", snap.Bounds, snap.Counts)
	}
	clk.advance(2 * time.Minute)
	if got := w.Count(); got != 0 {
		t.Fatalf("count-only window did not expire: %d", got)
	}
}

// TestWindowConcurrentRotation hammers Observe from many goroutines
// while another advances the clock across slot boundaries and readers
// snapshot continuously. Run under -race this is the proof that the
// observe path and the CAS-recycle rollover are data-race-free; the
// invariant checked is only sanity (counts bounded by what was
// written) because boundary races may legitimately drop a sample.
func TestWindowConcurrentRotation(t *testing.T) {
	w, clk := newTestWindow(t, 100*time.Millisecond, 4, []float64{0.01, 0.1, 1})

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Clock driver: rotate through many slot boundaries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			clk.advance(5 * time.Millisecond)
			time.Sleep(50 * time.Microsecond)
		}
		close(stop)
	}()

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.Observe(float64(g%3) * 0.05)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}

	// Concurrent readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap := w.Snapshot()
				if snap.Count > writers*perWriter {
					t.Errorf("snapshot count %d exceeds writes", snap.Count)
					return
				}
				snap.Quantile(0.99)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	if got := w.Snapshot().Count; got > writers*perWriter {
		t.Fatalf("final count %d exceeds total writes", got)
	}
}

func TestWindowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero span":  func() { NewWindow(0, 4, nil) },
		"zero slots": func() { NewWindow(time.Minute, 0, nil) },
		"tiny span":  func() { NewWindow(10, 100, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
