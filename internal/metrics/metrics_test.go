package metrics

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "jobs created")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration: the same instrument comes back.
	if r.Counter("jobs_total", "jobs created") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("inflight", "in-flight requests")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := New()
	a := r.Counter("http_requests_total", "requests", L("route", "/v1/jobs"))
	b := r.Counter("http_requests_total", "requests", L("route", "/v1/stats"))
	if a == b {
		t.Fatal("distinct label sets shared a counter")
	}
	a.Add(2)
	b.Inc()
	snap := r.Snapshot()
	if snap[`http_requests_total{route="/v1/jobs"}`] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	if snap[`http_requests_total{route="/v1/stats"}`] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad-name", "")
}

func TestHistogramBucketsCumulativeAndMonotone(t *testing.T) {
	r := New()
	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 2, 0.0001} {
		h.Observe(v)
	}
	cum := h.Snapshot().Cumulative()
	want := []uint64{2, 4, 5, 6} // ≤0.01, ≤0.1, ≤1, +Inf
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative buckets not monotone: %v", cum)
		}
	}
	if snap := h.Snapshot(); snap.Count != 6 || math.Abs(snap.Sum-2.5451) > 1e-12 || snap.Max != 2 {
		t.Errorf("count = %d, sum = %v, max = %v", snap.Count, snap.Sum, snap.Max)
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1" means v <= 1
	if cum := h.Snapshot().Cumulative(); cum[0] != 1 {
		t.Fatalf("observation at the bound landed in bucket %v", cum)
	}
}

func TestGaugeFuncReadsAtScrape(t *testing.T) {
	r := New()
	depth := 0
	r.GaugeFunc("queue_depth", "queued work", func() float64 { return float64(depth) })
	depth = 7
	if got := r.Snapshot()["queue_depth"]; got != 7 {
		t.Fatalf("gauge func = %v, want 7", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v", g.Value())
	}
	if snap := h.Snapshot(); snap.Count != 8000 || snap.Cumulative()[0] != 8000 {
		t.Errorf("histogram count = %d", snap.Count)
	}
}

// TestScrapeRacesSeriesResolution reproduces the broker's hot path:
// requests resolve first-seen label combinations (and re-register
// GaugeFuncs) while a scraper iterates the registry. Under -race this
// pins that scrapes snapshot series under the lock instead of
// iterating live maps, and that GaugeFunc replacement is safe against
// a concurrent read.
func TestScrapeRacesSeriesResolution(t *testing.T) {
	// Force real goroutine interleaving even on a single-core runner —
	// with GOMAXPROCS=1 the scrape loop can run to completion between
	// scheduler preemptions and the race window rarely opens.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	r := New()
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				id := strconv.Itoa(w*1000 + i)
				r.Counter("requests_total", "", L("code", id)).Inc()
				r.Histogram("latency_seconds", "", nil, L("route", id)).Observe(0.01)
				depth := float64(i)
				r.GaugeFunc("depth", "", func() float64 { return depth })
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	scraper.Wait()
	if got := len(r.sortedFamilies()); got != 3 {
		t.Fatalf("families = %d, want 3", got)
	}
}

// TestEmptyBucketsNormalizeToDefault pins the empty-slice edge:
// []float64{} means "defaults" exactly like nil, both on first
// registration and on re-registration of an existing family — no raw
// index panic out of equalBuckets.
func TestEmptyBucketsNormalizeToDefault(t *testing.T) {
	r := New()
	a := r.Histogram("h_seconds", "", nil)
	b := r.Histogram("h_seconds", "", []float64{})
	if a != b {
		t.Fatal("empty buckets resolved a different series than nil")
	}
	a.Observe(0.003)
	if cum := a.Snapshot().Cumulative(); len(cum) != len(DefLatencyBuckets)+1 {
		t.Fatalf("bucket count %d, want %d", len(cum), len(DefLatencyBuckets)+1)
	}
	// A custom family re-registered with empty buckets is a layout
	// mismatch — it must fail with the descriptive panic.
	r.Histogram("custom_seconds", "", []float64{1, 2})
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "different buckets") {
			t.Fatalf("panic = %v, want descriptive bucket mismatch", msg)
		}
	}()
	r.Histogram("custom_seconds", "", []float64{})
}

func TestLabelValueEscaping(t *testing.T) {
	r := New()
	r.Counter("c_total", "", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\n"`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

// TestWritePrometheusGolden pins the full exposition byte-for-byte:
// deterministic family and series order, HELP/TYPE headers, histogram
// expansion with cumulative le buckets, _sum, and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("cdt_http_requests_total", "HTTP requests served.",
		L("route", "/v1/jobs"), L("method", "POST"), L("code", "201")).Add(3)
	r.Counter("cdt_http_requests_total", "HTTP requests served.",
		L("route", "/v1/healthz"), L("method", "GET"), L("code", "200")).Inc()
	r.Gauge("cdt_jobs_live", "Live trading jobs.").Set(2)
	h := r.Histogram("cdt_http_request_seconds", "Request latency.", []float64{0.01, 0.1}, L("route", "/v1/jobs"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)

	const want = `# HELP cdt_http_request_seconds Request latency.
# TYPE cdt_http_request_seconds histogram
cdt_http_request_seconds_bucket{le="0.01",route="/v1/jobs"} 1
cdt_http_request_seconds_bucket{le="0.1",route="/v1/jobs"} 2
cdt_http_request_seconds_bucket{le="+Inf",route="/v1/jobs"} 3
cdt_http_request_seconds_sum{route="/v1/jobs"} 0.555
cdt_http_request_seconds_count{route="/v1/jobs"} 3
# HELP cdt_http_requests_total HTTP requests served.
# TYPE cdt_http_requests_total counter
cdt_http_requests_total{code="200",method="GET",route="/v1/healthz"} 1
cdt_http_requests_total{code="201",method="POST",route="/v1/jobs"} 3
# HELP cdt_jobs_live Live trading jobs.
# TYPE cdt_jobs_live gauge
cdt_jobs_live 2
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

func TestSnapshotMatchesExposition(t *testing.T) {
	r := New()
	r.Counter("a_total", "").Add(2)
	h := r.Histogram("lat", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	snap := r.Snapshot()
	for k, want := range map[string]float64{
		"a_total":               2,
		`lat_bucket{le="1"}`:    1,
		`lat_bucket{le="+Inf"}`: 2,
		"lat_sum":               3.5,
		"lat_count":             2,
	} {
		if snap[k] != want {
			t.Errorf("snapshot[%q] = %v, want %v (all: %v)", k, snap[k], want, snap)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench_seconds", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}
