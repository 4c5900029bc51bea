package metrics

import (
	"math"
	"testing"
	"time"
)

// TestObserveAllocFree pins the hot paths: recording into a histogram
// (registered or not) and into a rolling window never allocates.
func TestObserveAllocFree(t *testing.T) {
	h := New().Histogram("h_seconds", "", nil)
	free := NewHistogram(GeometricBuckets(1e-6, 130, 1.07))
	w := NewWindow(time.Minute, 12, DefLatencyBuckets)
	v := 0.0
	for name, fn := range map[string]func(){
		"Histogram.Observe":           func() { h.Observe(v) },
		"Histogram.Observe geometric": func() { free.Observe(v) },
		"Window.Observe":              func() { w.Observe(v) },
	} {
		if n := testing.AllocsPerRun(1000, func() { v += 0.0007; fn() }); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// TestSnapshotAddIsPooledObservation checks that merging snapshots is
// the same as observing every value into one histogram, and that a
// zero snapshot adopts the layout of the first one added.
func TestSnapshotAddIsPooledObservation(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	a, b, both := NewHistogram(bounds), NewHistogram(bounds), NewHistogram(bounds)
	for i, v := range []float64{0.005, 0.02, 0.5, 3, 0.07, 0.0001, 0.9} {
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	var got HistogramSnapshot
	got.Add(HistogramSnapshot{}) // no layout yet: a no-op
	got.Add(a.Snapshot())
	got.Add(b.Snapshot())
	want := both.Snapshot()
	if got.Count != want.Count || got.Max != want.Max || math.Abs(got.Sum-want.Sum) > 1e-12 {
		t.Fatalf("merged count/sum/max %d/%v/%v, want %d/%v/%v",
			got.Count, got.Sum, got.Max, want.Count, want.Sum, want.Max)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("merged counts %v, want %v", got.Counts, want.Counts)
		}
	}
	if got.Mean() != got.Sum/7 {
		t.Fatalf("mean %v, want %v", got.Mean(), got.Sum/7)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adding a snapshot with another layout did not panic")
		}
	}()
	got.Add(NewHistogram([]float64{0.01, 0.1, 2}).Snapshot())
}

// TestQuantileRule pins the one quantile rule: the bucket's upper
// bound, unless the exact max is tighter or the rank lands in +Inf.
func TestQuantileRule(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 0.5, 1.5, 3, 9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.4, 1}, {0.6, 2}, {0.8, 4}, {0.81, 9}, {1, 9},
	} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// A bound above the exact max reports the max instead.
	small := NewHistogram([]float64{1, 10})
	small.Observe(2.5)
	if got := small.Snapshot().Quantile(0.5); got != 2.5 {
		t.Fatalf("overshooting bound: Quantile = %v, want max 2.5", got)
	}
	// A count-only histogram has only +Inf: every quantile is the max.
	c := NewHistogram(nil)
	c.Observe(3)
	if got := c.Snapshot().Quantile(0.5); got != 3 {
		t.Fatalf("count-only Quantile = %v, want 3", got)
	}
}

// TestGeometricBuckets pins the log-linear layout the load generator
// uses: 1 µs to just under 130 s at 7% resolution is 277 bounds.
func TestGeometricBuckets(t *testing.T) {
	b := GeometricBuckets(1e-6, 130, 1.07)
	if len(b) != 277 || b[0] != 1e-6 || b[len(b)-1] >= 130 || b[len(b)-1]*1.07 < 130 {
		t.Fatalf("layout has %d bounds [%v, %v]", len(b), b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if r := b[i] / b[i-1]; math.Abs(r-1.07) > 1e-9 {
			t.Fatalf("bound %d ratio %v, want 1.07", i, r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor 1 did not panic")
		}
	}()
	GeometricBuckets(1, 2, 1)
}
