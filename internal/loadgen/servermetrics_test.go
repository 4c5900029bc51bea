package loadgen

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cmabhs/internal/metrics"
	"cmabhs/internal/server"
)

const sampleExposition = `# HELP cdt_http_request_seconds HTTP request latency in seconds, by route pattern.
# TYPE cdt_http_request_seconds histogram
cdt_http_request_seconds_bucket{le="0.005",route="/v1/jobs/{id}/advance"} 90
cdt_http_request_seconds_bucket{le="0.05",route="/v1/jobs/{id}/advance"} 98
cdt_http_request_seconds_bucket{le="+Inf",route="/v1/jobs/{id}/advance"} 100
cdt_http_request_seconds_sum{route="/v1/jobs/{id}/advance"} 1.25
cdt_http_request_seconds_count{route="/v1/jobs/{id}/advance"} 100
cdt_http_request_seconds_bucket{le="0.005",route="/v1/stats"} 0
cdt_http_request_seconds_bucket{le="+Inf",route="/v1/stats"} 0
cdt_http_request_seconds_sum{route="/v1/stats"} 0
cdt_http_request_seconds_count{route="/v1/stats"} 0
cdt_http_request_seconds_p50_1m{route="/v1/jobs/{id}/advance"} 0.005
cdt_http_requests_total{code="200",method="POST",route="/v1/jobs/{id}/advance"} 100
`

func TestParseRouteHistograms(t *testing.T) {
	hists, err := parseRouteHistograms(strings.NewReader(sampleExposition), serverLatencyFamily)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := hists["/v1/jobs/{id}/advance"]
	if !ok {
		t.Fatalf("advance route missing; got %v", hists)
	}
	if h.Count != 100 || h.Sum != 1.25 {
		t.Fatalf("count=%d sum=%v", h.Count, h.Sum)
	}
	if len(h.Bounds) != 2 || h.Bounds[1] != 0.05 || len(h.Counts) != 3 || h.Counts[2] != 2 {
		t.Fatalf("bounds %v counts %v", h.Bounds, h.Counts)
	}
	if got := h.Quantile(0.5); got != 0.005 {
		t.Fatalf("p50 = %v, want 0.005", got)
	}
	if got := h.Quantile(0.95); got != 0.05 {
		t.Fatalf("p95 = %v, want 0.05", got)
	}
	// p99.5 lands in +Inf: the largest finite bound is the floor.
	if got := h.Quantile(0.995); got != 0.05 {
		t.Fatalf("p99.5 = %v, want 0.05 floor", got)
	}
	if got := h.Mean(); got != 0.0125 {
		t.Fatalf("mean = %v", got)
	}
	// The idle route parses but carries no traffic.
	if h, ok := hists["/v1/stats"]; !ok || h.Count != 0 {
		t.Fatalf("stats route = %+v", h)
	}
}

// TestParseRouteHistogramsRefusesMalformed checks the scrape parser
// refuses a series whose bounds or counts cannot be a histogram,
// instead of turning them into garbage per-bucket counts.
func TestParseRouteHistogramsRefusesMalformed(t *testing.T) {
	const f = "cdt_http_request_seconds"
	b := func(le, v string) string { return f + `_bucket{le="` + le + `",route="/r"} ` + v + "\n" }
	inf := b("+Inf", "5")
	for name, body := range map[string]string{
		"le descending":         b("0.1", "1") + b("0.01", "2") + inf,
		"le repeated":           b("0.1", "1") + b("0.1", "2") + inf,
		"le negative":           b("-1", "1") + inf,
		"le NaN":                b("NaN", "1") + inf,
		"bucket after +Inf":     inf + b("0.1", "5"),
		"no +Inf bucket":        b("0.1", "1"),
		"cumulative decreasing": b("0.1", "3") + b("1", "2") + inf,
		"cumulative negative":   b("0.1", "-1") + inf,
		"cumulative NaN":        b("0.1", "NaN") + inf,
		"cumulative +Inf":       b("0.1", "+Inf") + inf,
		"cumulative huge":       b("0.1", "1e300") + inf,
		"count negative":        inf + f + `_count{route="/r"} -5` + "\n",
		"sum NaN":               inf + f + `_sum{route="/r"} NaN` + "\n",
	} {
		if h, err := parseRouteHistograms(strings.NewReader(body), f); err == nil {
			t.Errorf("%s: parsed %+v, want an error", name, h)
		}
	}
}

// FuzzParseRouteHistograms feeds arbitrary expositions to the scrape
// parser: it must never panic, and every series it accepts must give
// quantiles that are monotone in q and lie in [0, largest finite bound].
func FuzzParseRouteHistograms(f *testing.F) {
	f.Add(sampleExposition)
	f.Add("cdt_http_request_seconds_bucket{le=\"0.5\",route=\"/r\"} 3\n" +
		"cdt_http_request_seconds_bucket{le=\"+Inf\",route=\"/r\"} 2\n")
	f.Add("cdt_http_request_seconds_bucket{le=\"+Inf\",route=\"/r\"} 1\n" +
		"cdt_http_request_seconds_count{route=\"/r\"} 9\n")
	f.Fuzz(func(t *testing.T, body string) {
		hists, err := parseRouteHistograms(strings.NewReader(body), serverLatencyFamily)
		if err != nil {
			return
		}
		for route, h := range hists {
			top := 0.0
			if n := len(h.Bounds); n > 0 {
				top = h.Bounds[n-1]
			}
			prev := 0.0
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				v := h.Quantile(q)
				if math.IsNaN(v) || v < prev || v > top {
					t.Fatalf("route %q: Quantile(%v) = %v after %v, want monotone in [0, %v]", route, q, v, prev, top)
				}
				prev = v
			}
		}
	})
}

func TestParseLabels(t *testing.T) {
	got := parseLabels(`le="0.005",route="/v1/jobs/{id}/advance"`)
	if got["le"] != "0.005" || got["route"] != "/v1/jobs/{id}/advance" {
		t.Fatalf("labels = %v", got)
	}
	if got := parseLabels(""); len(got) != 0 {
		t.Fatalf("empty labels = %v", got)
	}
}

// TestServerMetricsComparison runs a short load against a real broker
// with the scrape on and checks the joined rows are coherent.
func TestServerMetricsComparison(t *testing.T) {
	s := server.New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		Target:        ts.URL,
		Rate:          150,
		Duration:      2 * time.Second,
		Seed:          7,
		Jobs:          3,
		Sellers:       10,
		K:             3,
		AdvanceRounds: 10,
		HTTPClient:    ts.Client(),
		ServerMetrics: true,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Server) == 0 {
		t.Fatalf("no server rows scraped\n%s", rep.Human())
	}
	var advance *ServerRoute
	for i := range rep.Server {
		sr := &rep.Server[i]
		if sr.Count == 0 {
			t.Fatalf("zero-count server row %+v", sr)
		}
		// The exposition has no exact max: a server quantile in +Inf
		// reads as the largest finite bound, never above it.
		if top := metrics.DefLatencyBuckets[len(metrics.DefLatencyBuckets)-1]; sr.P50S > top || sr.P99S > top {
			t.Fatalf("server row %+v past the +Inf floor %v", sr, top)
		}
		if sr.Route == "/v1/jobs/{id}/advance" {
			advance = sr
		}
	}
	if advance == nil {
		t.Fatalf("no advance row in server view: %+v", rep.Server)
	}
	if advance.Ops != "advance" || advance.ClientCount == 0 {
		t.Fatalf("advance row not joined with client stats: %+v", advance)
	}
	// Client-observed latency includes the server's plus the stack
	// under it; with conservative buckets on both sides allow equality.
	if advance.ClientP99S <= 0 || advance.P99S <= 0 {
		t.Fatalf("missing quantiles: %+v", advance)
	}
	if !strings.Contains(rep.Human(), "client vs server") {
		t.Fatalf("human report missing comparison table:\n%s", rep.Human())
	}
}
