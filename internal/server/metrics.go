package server

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"cmabhs/internal/metrics"
)

// This file wires the broker into the metrics registry. Conventions
// (documented in DESIGN.md §11):
//
//   - every metric is prefixed cdt_; durations are histograms in
//     seconds with a _seconds suffix, counts are _total counters;
//   - HTTP series carry a route label holding the route PATTERN
//     ("/v1/jobs/{id}/advance") from the route table (routes.go),
//     never the raw path — ids never reach labels, anywhere: job ids
//     are monotonic and unbounded under create/delete churn, so an
//     id-labeled family would leak series. Per-job numbers ride in the
//     JobStatus metrics block instead;
//   - values another component already tracks (pool occupancy, live
//     jobs) are GaugeFuncs read at scrape time, not shadow counters.

// metricNames used by the request frame.
const (
	mnRequests   = "cdt_http_requests_total"
	mnLatency    = "cdt_http_request_seconds"
	mnInFlight   = "cdt_http_in_flight"
	mnShed       = "cdt_http_shed_total"
	mnBodyReject = "cdt_http_body_reject_total"
	mnPanics     = "cdt_http_panics_total"
)

// serverMetrics holds the pre-resolved instruments of the broker's
// hot paths; everything else resolves through the registry on demand.
type serverMetrics struct {
	reg      *metrics.Registry
	inFlight *metrics.Gauge
	routes   map[string]*routeMetrics // by route label

	// Rolling 1m/5m shed windows alongside the cumulative counter
	// (exposed as *_1m/*_5m gauge series, see registerWindows).
	// Index 0 is the 1-minute window, index 1 the 5-minute one.
	winShed [2]*metrics.Window // count-only

	shed       *metrics.Counter
	bodyReject *metrics.Counter
	panics     *metrics.Counter

	jobsCreated    *metrics.Counter
	roundsAdvanced *metrics.Counter
	gamesSolved    *metrics.Counter

	retryAttempts *metrics.Counter
	retryFailures *metrics.Counter

	eventsDropped *metrics.Counter

	walAppended     *metrics.Counter
	walCompactions  *metrics.Counter
	walAppendErrors *metrics.Counter
	walReplayed     *metrics.Counter

	// Cluster instruments, registered only when Server.Cluster is set
	// so the single-node /metrics surface is unchanged. Every code
	// path that touches them is cluster-gated.
	leasesLost         *metrics.Counter
	leaseRenewFailures *metrics.Counter
	leaseTakeovers     *metrics.Counter
	proxyRejected      *metrics.Counter
	proxyErrors        *metrics.Counter
}

// routeMetrics are one route label's instruments, bound into its
// request frame (and, for proxied, its job adapter) by Handler.
type routeMetrics struct {
	latency *metrics.Histogram
	win     [2]*metrics.Window // rolling 1m/5m latency
	proxied *metrics.Counter   // nil on a single-node broker, which never proxies
}

// proxied returns the cdt_proxied_requests_total counter for a route label.
func (m *serverMetrics) proxied(route string) *metrics.Counter {
	return m.routes[route].proxied
}

// Metrics returns the broker's metrics registry, building and
// instrumenting it on first use. Set the Registry field before
// serving to scrape broker metrics into an existing registry.
func (s *Server) Metrics() *metrics.Registry {
	s.metricsOnce.Do(func() {
		reg := s.Registry
		if reg == nil {
			reg = metrics.New()
		}
		m := &serverMetrics{
			reg:      reg,
			inFlight: reg.Gauge(mnInFlight, "HTTP requests currently being served."),
			routes:   make(map[string]*routeMetrics),
			shed: reg.Counter(mnShed,
				"Advance requests shed with 429 because the advance pool was saturated."),
			bodyReject: reg.Counter(mnBodyReject,
				"Requests rejected with 413 because the body exceeded MaxBodyBytes."),
			panics: reg.Counter(mnPanics,
				"Handler panics recovered into a 500 response."),
			jobsCreated:    reg.Counter("cdt_jobs_created_total", "Trading jobs created."),
			roundsAdvanced: reg.Counter("cdt_rounds_advanced_total", "Trading rounds played across all jobs."),
			gamesSolved:    reg.Counter("cdt_games_solved_total", "Stateless game solves served."),
			retryAttempts:  reg.Counter("cdt_store_retry_attempts_total", "State-store write attempts."),
			retryFailures:  reg.Counter("cdt_store_retry_failures_total", "Failed state-store write attempts."),
			eventsDropped: reg.Counter("cdt_job_events_dropped_total",
				"Round events dropped because an /events subscriber could not keep up."),
			walAppended: reg.Counter("cdt_wal_appended_rounds_total",
				"Rounds appended to per-job WAL segments."),
			walCompactions: reg.Counter("cdt_wal_compactions_total",
				"WAL compactions: segment tails folded into fresh snapshots."),
			walAppendErrors: reg.Counter("cdt_wal_append_errors_total",
				"Failed WAL appends or compactions (durability degraded to the last intact prefix)."),
			walReplayed: reg.Counter("cdt_wal_replayed_rounds_total",
				"Rounds replayed from WAL tails during crash recovery."),
		}
		m.registerWindows(reg)
		// One instrument set per route label: each table path, plus
		// "other" for requests no route matches.
		for _, rt := range append(s.routes(), route{path: "other"}) {
			if m.routes[rt.path] == nil {
				m.routes[rt.path] = registerRoute(reg, rt.path, s.clustered())
			}
		}
		reg.Gauge("cdt_build_info",
			"Build and wire-format metadata carried in labels; the value is always 1.",
			metrics.L("version", buildVersion()),
			metrics.L("go_version", runtime.Version()),
			metrics.L("wire_version", strconv.Itoa(WireVersion))).Set(1)
		// Trace-store loss counters, surfaced from /debug/traces into
		// the scrape so dashboards can alert on trace loss.
		reg.GaugeFunc("cdt_trace_evicted_traces",
			"Traces evicted from the bounded in-memory trace store.",
			func() float64 { return float64(s.Tracing().Store().Evicted()) })
		reg.GaugeFunc("cdt_trace_dropped_spans",
			"Spans dropped because a trace hit its per-trace span cap.",
			func() float64 { return float64(s.Tracing().Store().DroppedSpans()) })
		reg.GaugeFunc("cdt_jobs_live", "Live trading jobs.", func() float64 {
			return float64(s.registry().len())
		})
		// Per-shard occupancy. Shard indexes are a fixed, small label
		// universe (unlike job ids), so a per-shard family is safe; a
		// hot shard shows up as one gauge pulling away from the rest.
		reg.GaugeFunc("cdt_registry_shards", "Job-registry stripe count.",
			func() float64 { return float64(s.registry().shardCount()) })
		for i := 0; i < s.registry().shardCount(); i++ {
			reg.GaugeFunc("cdt_registry_shard_jobs", "Live jobs per registry shard.",
				func() float64 { return float64(s.registry().shardLen(i)) },
				metrics.L("shard", strconv.Itoa(i)))
		}
		reg.GaugeFunc("cdt_advance_pool_capacity", "Advance worker-pool capacity.",
			func() float64 { return float64(s.pool().Cap()) })
		reg.GaugeFunc("cdt_advance_pool_active", "Advance calls executing right now.",
			func() float64 { return float64(s.pool().InUse()) })
		reg.GaugeFunc("cdt_advance_pool_waiting", "Acquire calls queued behind a full advance pool.",
			func() float64 { return float64(s.pool().Waiting()) })
		if s.clustered() {
			m.leasesLost = reg.Counter("cdt_leases_lost_total",
				"Jobs evicted because their lease was stolen by another node.")
			m.leaseRenewFailures = reg.Counter("cdt_lease_renew_failures_total",
				"Failed lease renewals (lost leases and store errors).")
			m.leaseTakeovers = reg.Counter("cdt_lease_takeovers_total",
				"Leases this node acquired for jobs it did not create (adoption and failover).")
			m.proxyRejected = reg.Counter("cdt_proxy_rejected_total",
				"Requests answered 503 because job ownership was in transition.")
			m.proxyErrors = reg.Counter("cdt_proxy_errors_total",
				"Proxied requests that failed to reach the owning peer.")
			reg.GaugeFunc("cdt_leases_held", "Job leases this node currently holds.",
				func() float64 { return float64(s.leasesHeld.Load()) })
		}
		s.metrics = m
	})
	return s.metrics.reg
}

// windowSpans defines the rolling windows every windowed family
// carries: suffix, span, and sub-interval slot count. Slot
// granularity is span/slots (5s for the 1m window, 20s for 5m).
var windowSpans = [2]struct {
	suffix string
	span   time.Duration
	slots  int
}{
	{"1m", time.Minute, 12},
	{"5m", 5 * time.Minute, 15},
}

// registerWindows builds the shed rolling 1m/5m windows;
// registerRoute adds each route's latency windows. All are exported as
// gauge families computed at scrape time:
//
//	cdt_http_request_seconds_p50_{1m,5m}{route=...}  windowed latency quantiles
//	cdt_http_request_seconds_p99_{1m,5m}{route=...}
//	cdt_http_requests_{1m,5m}{route=...}             requests inside the window
//	cdt_http_shed_{1m,5m}                            sheds inside the window
//	cdt_http_shed_rate_{1m,5m}                       sheds / advance requests, 0 when idle
//
// These are gauges, not counters: a window's value falls as samples
// age out. The cumulative families remain the source of truth for
// rate() math; the windows exist so a bare scrape (or the cluster
// overview) answers "what is p99 right now" with no PromQL engine.
func (m *serverMetrics) registerWindows(reg *metrics.Registry) {
	for i, ws := range windowSpans {
		m.winShed[i] = metrics.NewWindow(ws.span, ws.slots, nil)
		shed := m.winShed[i]
		reg.GaugeFunc("cdt_http_shed_"+ws.suffix,
			"Advance requests shed inside the rolling window.",
			func() float64 { return float64(shed.Count()) })
		reg.GaugeFunc("cdt_http_shed_rate_"+ws.suffix,
			"Fraction of advance traffic shed inside the rolling window.",
			func() float64 { return m.shedRate(i) })
	}
}

// registerRoute registers one route label's latency histogram, rolling
// windows, and — on a clustered broker — proxy counter.
func registerRoute(reg *metrics.Registry, label string, clustered bool) *routeMetrics {
	lbl := metrics.L("route", label)
	rm := &routeMetrics{
		latency: reg.Histogram(mnLatency, "HTTP request latency in seconds, by route pattern.", nil, lbl),
	}
	for i, ws := range windowSpans {
		w := metrics.NewWindow(ws.span, ws.slots, metrics.DefLatencyBuckets)
		rm.win[i] = w
		reg.GaugeFunc(mnLatency+"_p50_"+ws.suffix,
			"Rolling-window p50 HTTP latency in seconds, by route pattern.",
			func() float64 { return w.Snapshot().Quantile(0.5) }, lbl)
		reg.GaugeFunc(mnLatency+"_p99_"+ws.suffix,
			"Rolling-window p99 HTTP latency in seconds, by route pattern.",
			func() float64 { return w.Snapshot().Quantile(0.99) }, lbl)
		reg.GaugeFunc("cdt_http_requests_"+ws.suffix,
			"HTTP requests served inside the rolling window, by route pattern.",
			func() float64 { return float64(w.Count()) }, lbl)
	}
	if clustered {
		rm.proxied = reg.Counter("cdt_proxied_requests_total",
			"Requests proxied to the owning peer, by route pattern.", lbl)
	}
	return rm
}

// shedRate is the fraction of advance requests shed inside rolling
// window i (0 = 1m, 1 = 5m). The request frame records every advance
// in its route's windows, shed 429s included, so the advance route's
// count is already the denominator. A scrape between a shed and its
// frame's record can see one more shed than advances; the rate is
// capped at 1.
func (m *serverMetrics) shedRate(i int) float64 {
	sheds, advances := m.winShed[i].Count(), m.routes[advancePath].win[i].Count()
	if sheds == 0 || advances == 0 {
		return 0
	}
	return min(1, float64(sheds)/float64(advances))
}

// recordShed counts one shed advance into the cumulative counter and
// both rolling windows.
func (m *serverMetrics) recordShed() {
	m.shed.Inc()
	m.winShed[0].Observe(1)
	m.winShed[1].Observe(1)
}

// rollup merges every route's latency window, and reads the shed
// windows, into the wire form the cluster overview reports for this
// node. Every request frame (table routes, 405s and "other") records
// into its route's windows, so the merge covers all traffic once.
func (m *serverMetrics) rollup() WindowRollup {
	var r WindowRollup
	for i := range windowSpans {
		var snap metrics.HistogramSnapshot
		for _, rm := range m.routes {
			snap.Add(rm.win[i].Snapshot())
		}
		wr := WindowRates{
			Requests: snap.Count,
			P50S:     snap.Quantile(0.5),
			P99S:     snap.Quantile(0.99),
			ShedRate: m.shedRate(i),
		}
		if i == 0 {
			r.Win1m = wr
		} else {
			r.Win5m = wr
		}
	}
	return r
}

// met returns the instrumented sink, initializing on first use.
func (s *Server) met() *serverMetrics {
	s.Metrics()
	return s.metrics
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = s.Metrics().WritePrometheus(w)
}
