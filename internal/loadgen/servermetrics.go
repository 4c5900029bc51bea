package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"cmabhs/internal/metrics"
)

// Server-side latency comparison (Config.ServerMetrics): after the
// run drains, the broker's /metrics exposition is scraped and its
// cdt_http_request_seconds histograms are parsed into per-route
// metrics.HistogramSnapshots next to the client-observed ones. The gap
// between the two IS the network + client stack: server p99 ≈ client
// p99 means the broker dominates; a wide gap points at the wire or the
// generator host. Both sides are the same histogram type with the same
// quantile rule (a conservative bucket upper bound), over different
// layouts: the server's DefLatencyBuckets are coarser than the
// client's 7% geometric buckets, so small disagreements are expected
// bucket-width noise. The exposition carries no exact max, so a
// server quantile in the +Inf bucket reads as the largest finite
// bound, a floor.

// serverLatencyFamily is the histogram family compared against.
const serverLatencyFamily = "cdt_http_request_seconds"

// ServerRoute is one route-pattern row of the server-side scrape,
// with the client-observed quantiles for the ops that hit that route
// alongside (zero Ops means no client op maps to it).
type ServerRoute struct {
	Route string  `json:"route"`
	Count uint64  `json:"count"`
	P50S  float64 `json:"p50_s"`
	P99S  float64 `json:"p99_s"`
	MeanS float64 `json:"mean_s"`

	Ops         string  `json:"ops,omitempty"` // client ops pooled into the row
	ClientCount uint64  `json:"client_count,omitempty"`
	ClientP50S  float64 `json:"client_p50_s,omitempty"`
	ClientP99S  float64 `json:"client_p99_s,omitempty"`
}

// opRoutes maps each client op to the broker route pattern it lands
// on (the route label values in /metrics).
var opRoutes = map[Op]string{
	OpCreate:    "/v1/jobs",
	OpList:      "/v1/jobs",
	OpAdvance:   "/v1/jobs/{id}/advance",
	OpStatus:    "/v1/jobs/{id}",
	OpDelete:    "/v1/jobs/{id}",
	OpSnapshot:  "/v1/jobs/{id}/snapshot",
	OpEstimates: "/v1/jobs/{id}/estimates",
	OpStats:     "/v1/stats",
	OpSolve:     "/v1/game/solve",
}

// scrapeServerRoutes fetches target's /metrics and reduces the
// request-latency histograms to per-route rows (routes with no
// traffic are dropped).
func scrapeServerRoutes(ctx context.Context, hc *http.Client, target string) ([]ServerRoute, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(target, "/")+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape /metrics: status %d", resp.StatusCode)
	}
	hists, err := parseRouteHistograms(resp.Body, serverLatencyFamily)
	if err != nil {
		return nil, err
	}
	out := make([]ServerRoute, 0, len(hists))
	for route, h := range hists {
		if h.Count == 0 {
			continue
		}
		out = append(out, ServerRoute{
			Route: route,
			Count: h.Count,
			P50S:  h.Quantile(0.50),
			P99S:  h.Quantile(0.99),
			MeanS: h.Mean(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out, nil
}

// parseRouteHistograms extracts family's histogram series keyed by
// route label from a Prometheus text-format exposition. The bytes come
// off the network, so the whole parse is refused unless every series'
// le bounds are non-negative, strictly ascending and end in +Inf, and
// its cumulative counts (and _count) are finite, non-negative and
// non-decreasing. Each series' Max is its largest finite bound.
func parseRouteHistograms(r io.Reader, family string) (map[string]metrics.HistogramSnapshot, error) {
	type series struct {
		snap metrics.HistogramSnapshot
		cum  uint64 // the last cumulative bucket count
		inf  bool   // the +Inf bucket was seen
	}
	all := make(map[string]*series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(family):]
		var kind string
		switch {
		case strings.HasPrefix(rest, "_bucket{"):
			kind, rest = "bucket", rest[len("_bucket"):]
		case strings.HasPrefix(rest, "_count{"):
			kind, rest = "count", rest[len("_count"):]
		case strings.HasPrefix(rest, "_sum{"):
			kind, rest = "sum", rest[len("_sum"):]
		default:
			continue // another family sharing the prefix
		}
		close := strings.LastIndexByte(rest, '}')
		if close < 0 {
			continue
		}
		labels := parseLabels(rest[1:close])
		route := labels["route"]
		if route == "" {
			continue
		}
		value, err := strconv.ParseFloat(strings.TrimSpace(rest[close+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: bad sample value in %q: %w", line, err)
		}
		s := all[route]
		if s == nil {
			s = &series{}
			all[route] = s
		}
		switch kind {
		case "bucket":
			bound, err := strconv.ParseFloat(labels["le"], 64) // reads "+Inf" too
			if err != nil {
				return nil, fmt.Errorf("loadgen: bad le in %q: %w", line, err)
			}
			n := len(s.snap.Bounds)
			if s.inf || !(bound >= 0) || n > 0 && !(bound > s.snap.Bounds[n-1]) {
				return nil, fmt.Errorf("loadgen: le out of order in %q", line)
			}
			cum, ok := sampleCount(value)
			if !ok || cum < s.cum {
				return nil, fmt.Errorf("loadgen: bad cumulative count in %q", line)
			}
			s.snap.Counts = append(s.snap.Counts, cum-s.cum)
			s.cum, s.inf = cum, math.IsInf(bound, 1)
			if !s.inf {
				s.snap.Bounds = append(s.snap.Bounds, bound)
			}
		case "count":
			n, ok := sampleCount(value)
			if !ok {
				return nil, fmt.Errorf("loadgen: bad count in %q", line)
			}
			s.snap.Count = n
		case "sum":
			if math.IsNaN(value) || math.IsInf(value, 0) {
				return nil, fmt.Errorf("loadgen: non-finite sum in %q", line)
			}
			s.snap.Sum = value
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]metrics.HistogramSnapshot, len(all))
	for route, s := range all {
		if !s.inf {
			return nil, fmt.Errorf("loadgen: %s{route=%q} has no +Inf bucket", family, route)
		}
		if n := len(s.snap.Bounds); n > 0 {
			s.snap.Max = s.snap.Bounds[n-1]
		}
		out[route] = s.snap
	}
	return out, nil
}

// sampleCount converts a count sample to an integer, refusing NaN,
// infinities, negatives and values past 2⁶³.
func sampleCount(v float64) (uint64, bool) {
	if !(v >= 0 && v < 1<<63) {
		return 0, false
	}
	return uint64(v), true
}

// parseLabels splits a label body (`a="x",b="y"`) into a map. Values
// in the families parsed here (route patterns, le bounds) never
// contain escaped quotes, so a quote-bounded scan suffices.
func parseLabels(s string) map[string]string {
	out := make(map[string]string, 4)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return out
		}
		name := s[:eq]
		rest := s[eq+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			return out
		}
		out[name] = rest[:end]
		s = rest[end+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out
}

// attachServerRoutes joins the scraped rows with the client-side
// stats: every op mapping to a route merges its latency histogram into
// that row's client columns.
func (r *runner) attachServerRoutes(rows []ServerRoute) []ServerRoute {
	for i := range rows {
		var pooled metrics.HistogramSnapshot
		var ops []string
		for _, op := range allOps {
			st := r.stats[op]
			if opRoutes[op] != rows[i].Route || st.count.Load() == 0 {
				continue
			}
			ops = append(ops, string(op))
			pooled.Add(st.lat.Snapshot())
		}
		if len(ops) == 0 {
			continue
		}
		rows[i].Ops = strings.Join(ops, "+")
		rows[i].ClientCount = pooled.Count
		rows[i].ClientP50S = pooled.Quantile(0.50)
		rows[i].ClientP99S = pooled.Quantile(0.99)
	}
	return rows
}
