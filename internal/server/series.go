package server

import (
	"net/http"
	"strconv"

	"cmabhs/internal/telemetry"
)

// GET /v1/jobs/{id}/series — a job's downsampled per-round learning
// curve, recorded passively from the observer path (see
// internal/telemetry). Unlike the /events firehose this is queryable
// after the fact, bounded in memory, and cheap to poll: pass
// ?since=<round> to fetch only the tail beyond what you already have
// and ?max_points= to thin the response for plotting.

// SeriesPoint is one sampled point of a job's learning trajectory.
type SeriesPoint struct {
	Round int     `json:"round"`
	Value float64 `json:"value"`
}

// SeriesResponse is the wire form of GET /v1/jobs/{id}/series.
// Stride is the recorder's current downsampling stride in rounds
// (grows as powers of two once the ring fills); Rounds is how many
// rounds the job has recorded in total, so a poller can tell a short
// series from a heavily downsampled one.
type SeriesResponse struct {
	ID     string        `json:"id"`
	Metric string        `json:"metric"`
	Stride int           `json:"stride"`
	Rounds int           `json:"rounds"`
	Points []SeriesPoint `json:"points"`
}

// seriesMetrics maps the ?metric= name to its point field. Values are
// cumulative where the underlying totals are (regret, revenue,
// spend); no_trade and failed are per-round flags/counts.
var seriesMetrics = map[string]func(telemetry.Point) float64{
	"regret":  func(p telemetry.Point) float64 { return p.Regret },
	"revenue": func(p telemetry.Point) float64 { return p.Revenue },
	"spend":   func(p telemetry.Point) float64 { return p.Spend },
	"no_trade": func(p telemetry.Point) float64 {
		if p.NoTrade {
			return 1
		}
		return 0
	},
	"failed": func(p telemetry.Point) float64 { return float64(p.Failed) },
}

func (s *Server) handleJobSeries(w http.ResponseWriter, r *http.Request, j *job) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = "regret"
	}
	value, ok := seriesMetrics[metric]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown metric %q (want regret, revenue, spend, no_trade, or failed)", metric)
		return
	}
	since, ok := seriesQueryInt(w, q.Get("since"), "since")
	if !ok {
		return
	}
	maxPoints, ok := seriesQueryInt(w, q.Get("max_points"), "max_points")
	if !ok {
		return
	}

	pts, stride := j.series.Series(since, maxPoints)
	body := getRespBuf()
	defer body.release()
	var err error
	body.b, err = appendSeries(body.b, j.id, metric, stride, j.series.Rounds(), pts, value)
	writeEncoded(w, http.StatusOK, body, err)
}

// seriesQueryInt parses a non-negative integer query parameter,
// writing a 400 and returning ok=false on garbage.
func seriesQueryInt(w http.ResponseWriter, raw, name string) (int, bool) {
	if raw == "" {
		return 0, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, "bad %s %q: want a non-negative integer", name, raw)
		return 0, false
	}
	return n, true
}
