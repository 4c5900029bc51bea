package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cmabhs/internal/metrics"
)

// RouteReport is one op's outcome tally plus latency quantiles.
// Latencies cover every issued request regardless of outcome: a fast
// 429 is a real response the caller saw.
type RouteReport struct {
	Op          Op     `json:"op"`
	Count       uint64 `json:"count"`
	OK          uint64 `json:"ok"`
	Shed        uint64 `json:"shed"`        // 429
	Unavailable uint64 `json:"unavailable"` // 503
	Errors5xx   uint64 `json:"errors_5xx"`  // 5xx except 503
	Errors4xx   uint64 `json:"errors_4xx"`  // 4xx except 429
	Transport   uint64 `json:"transport"`   // connection-level failures
	Skipped     uint64 `json:"skipped"`     // fired with nothing to act on

	P50S  float64 `json:"p50_s"`
	P99S  float64 `json:"p99_s"`
	P999S float64 `json:"p999_s"`
	MaxS  float64 `json:"max_s"`
	MeanS float64 `json:"mean_s"`
}

// EventsReport summarizes the SSE subscriber side of the run.
type EventsReport struct {
	Subscribers int    `json:"subscribers"`
	Received    uint64 `json:"received"`
	Reconnects  uint64 `json:"reconnects"`
}

// Report is the outcome of one fixed-rate run.
type Report struct {
	Target      string  `json:"target"`
	Seed        int64   `json:"seed"`
	Mix         string  `json:"mix"`
	OfferedRate float64 `json:"offered_rate"` // what the schedule asked for
	DurationS   float64 `json:"duration_s"`   // wall clock, schedule + drain

	Requests     uint64  `json:"requests"`
	AchievedRate float64 `json:"achieved_rate"` // requests / duration
	OK           uint64  `json:"ok"`
	Shed         uint64  `json:"shed"`
	Unavailable  uint64  `json:"unavailable"`
	Errors5xx    uint64  `json:"errors_5xx"`
	Errors4xx    uint64  `json:"errors_4xx"`
	Transport    uint64  `json:"transport"`
	Skipped      uint64  `json:"skipped"`
	ShedRate     float64 `json:"shed_rate"`  // shed / requests
	ErrorRate    float64 `json:"error_rate"` // (5xx + transport) / requests

	// P99S/P999S are across all routes combined.
	P50S  float64 `json:"p50_s"`
	P99S  float64 `json:"p99_s"`
	P999S float64 `json:"p999_s"`
	MaxS  float64 `json:"max_s"`

	MaxOutstanding int64  `json:"max_outstanding"`
	Proxied        uint64 `json:"proxied"` // responses carrying X-CDT-Proxied-By

	// GenLagMaxS is the worst dispatcher lateness. When it approaches
	// the inter-arrival gap the generator — not the broker — was the
	// bottleneck, and the offered rate overstates real load.
	GenLagMaxS float64 `json:"gen_lag_max_s"`

	Events EventsReport  `json:"events"`
	Routes []RouteReport `json:"routes"`

	// Server is the broker-side latency view scraped from /metrics at
	// the end of the run (Config.ServerMetrics); nil when the scrape
	// was off or failed.
	Server []ServerRoute `json:"server_routes,omitempty"`
}

// report snapshots the runner's counters into a Report. Called after
// every in-flight request has drained.
func (r *runner) report(elapsed time.Duration) *Report {
	rep := &Report{
		Target:         r.cfg.Target,
		Seed:           r.cfg.Seed,
		Mix:            r.cfg.Mix.String(),
		OfferedRate:    r.cfg.Rate,
		DurationS:      elapsed.Seconds(),
		MaxOutstanding: r.maxOutstanding.Load(),
		Proxied:        r.proxied.Load(),
		GenLagMaxS:     time.Duration(r.lagMax.Load()).Seconds(),
		Events: EventsReport{
			Subscribers: r.cfg.Subscribers * r.cfg.Jobs,
			Received:    r.events.Load(),
			Reconnects:  r.eventsReconnects.Load(),
		},
	}
	// The all-routes view is the merge of the per-op histograms.
	var all metrics.HistogramSnapshot
	for _, op := range allOps {
		st := r.stats[op]
		if st.count.Load() == 0 && st.skipped.Load() == 0 {
			continue
		}
		lat := st.lat.Snapshot()
		all.Add(lat)
		rr := RouteReport{
			Op:          op,
			Count:       st.count.Load(),
			OK:          st.ok.Load(),
			Shed:        st.shed.Load(),
			Unavailable: st.unavailable.Load(),
			Errors5xx:   st.errors5xx.Load(),
			Errors4xx:   st.errors4xx.Load(),
			Transport:   st.transport.Load(),
			Skipped:     st.skipped.Load(),
			P50S:        lat.Quantile(0.50),
			P99S:        lat.Quantile(0.99),
			P999S:       lat.Quantile(0.999),
			MaxS:        lat.Max,
			MeanS:       lat.Mean(),
		}
		rep.Routes = append(rep.Routes, rr)
		rep.Requests += rr.Count
		rep.OK += rr.OK
		rep.Shed += rr.Shed
		rep.Unavailable += rr.Unavailable
		rep.Errors5xx += rr.Errors5xx
		rep.Errors4xx += rr.Errors4xx
		rep.Transport += rr.Transport
		rep.Skipped += rr.Skipped
	}
	sort.Slice(rep.Routes, func(i, j int) bool { return rep.Routes[i].Count > rep.Routes[j].Count })
	if rep.DurationS > 0 {
		rep.AchievedRate = float64(rep.Requests) / rep.DurationS
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
		rep.ErrorRate = float64(rep.Errors5xx+rep.Transport) / float64(rep.Requests)
	}
	rep.P50S = all.Quantile(0.50)
	rep.P99S = all.Quantile(0.99)
	rep.P999S = all.Quantile(0.999)
	rep.MaxS = all.Max
	return rep
}

// Human renders the report as a fixed-width table for terminals.
func (rep *Report) Human() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %s  seed %d  mix %s\n", rep.Target, rep.Seed, rep.Mix)
	fmt.Fprintf(&b, "offered %.1f req/s for %.1fs  achieved %.1f req/s  max in-flight %d\n",
		rep.OfferedRate, rep.DurationS, rep.AchievedRate, rep.MaxOutstanding)
	fmt.Fprintf(&b, "requests %d  ok %d  shed %d (%.2f%%)  503 %d  5xx %d  4xx %d  transport %d  skipped %d\n",
		rep.Requests, rep.OK, rep.Shed, rep.ShedRate*100,
		rep.Unavailable, rep.Errors5xx, rep.Errors4xx, rep.Transport, rep.Skipped)
	fmt.Fprintf(&b, "overall latency  p50 %s  p99 %s  p99.9 %s  max %s\n",
		fmtSecs(rep.P50S), fmtSecs(rep.P99S), fmtSecs(rep.P999S), fmtSecs(rep.MaxS))
	if rep.GenLagMaxS > 0.001 {
		fmt.Fprintf(&b, "generator lag max %s (schedule fell behind; offered rate is optimistic)\n", fmtSecs(rep.GenLagMaxS))
	}
	if rep.Proxied > 0 {
		fmt.Fprintf(&b, "proxied responses %d (multi-node forwarding active)\n", rep.Proxied)
	}
	if rep.Events.Subscribers > 0 {
		fmt.Fprintf(&b, "events  subscribers %d  received %d  reconnects %d\n",
			rep.Events.Subscribers, rep.Events.Received, rep.Events.Reconnects)
	}
	fmt.Fprintf(&b, "%-10s %8s %8s %6s %6s %6s %9s %9s %9s %9s\n",
		"route", "count", "ok", "shed", "5xx", "tpt", "p50", "p99", "p99.9", "max")
	for _, rr := range rep.Routes {
		fmt.Fprintf(&b, "%-10s %8d %8d %6d %6d %6d %9s %9s %9s %9s\n",
			rr.Op, rr.Count, rr.OK, rr.Shed, rr.Errors5xx+rr.Unavailable, rr.Transport,
			fmtSecs(rr.P50S), fmtSecs(rr.P99S), fmtSecs(rr.P999S), fmtSecs(rr.MaxS))
	}
	if len(rep.Server) > 0 {
		b.WriteString("\nclient vs server (server side scraped from /metrics; both conservative bucket bounds)\n")
		fmt.Fprintf(&b, "%-26s %-18s %8s %9s %9s %10s %9s %9s\n",
			"server route", "client ops", "srv n", "srv p50", "srv p99", "client n", "cli p50", "cli p99")
		for _, sr := range rep.Server {
			ops, cn, cp50, cp99 := sr.Ops, "-", "-", "-"
			if ops == "" {
				ops = "-"
			} else {
				cn = fmt.Sprintf("%d", sr.ClientCount)
				cp50, cp99 = fmtSecs(sr.ClientP50S), fmtSecs(sr.ClientP99S)
			}
			fmt.Fprintf(&b, "%-26s %-18s %8d %9s %9s %10s %9s %9s\n",
				sr.Route, ops, sr.Count, fmtSecs(sr.P50S), fmtSecs(sr.P99S), cn, cp50, cp99)
		}
	}
	return b.String()
}

func fmtSecs(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
