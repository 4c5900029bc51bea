package server

import (
	"math"

	"cmabhs"
	"cmabhs/internal/jsonw"
	"cmabhs/internal/telemetry"
)

// The broker's wire bodies — a played round, a job's status, an
// advance, a snapshot, a series, a job's estimates and a live event —
// are written by the appenders below on internal/jsonw's W rather than
// by reflective encoding/json. The bytes are exactly json.Marshal's
// (FuzzStatusBody and FuzzServedBodies hold them to it), floats are
// written by jsonw's Schubfach kernel, and a NaN or an infinity is the
// same *json.UnsupportedValueError, so a handler answers it with the
// same 500.
//
// A job's status also carries two M-long per-seller vectors, Estimates
// and PerSellerProfit, of which only the sellers played since the last
// status change. sellerText keeps each entry's float bits and text, so
// an entry is formatted again only when its bits change.

// floatText is one cached float: its bits and its wire text. n == 0
// marks an empty slot (every encoded float is at least one byte). 31
// bytes hold every float64's text: the longest is 25 ("-0.00000" and
// 17 significant digits, just above 1e-6).
type floatText struct {
	bits uint64
	n    uint8
	text [31]byte
}

// sellerText is a job's per-seller text cache for its status's
// Estimates and PerSellerProfit. It is guarded by the job's mu, and
// its slots are sized on first use.
type sellerText struct {
	est, profit []floatText
}

// appendRound appends json.Marshal(rd).
func appendRound(b []byte, rd *cmabhs.Round) ([]byte, error) {
	w := &jsonw.W{B: b}
	writeRound(w, rd)
	return w.B, w.Err
}

// appendStatus appends json.Marshal(st), taking the per-seller vectors
// through c.
func appendStatus(b []byte, st *JobStatus, c *sellerText) ([]byte, error) {
	w := &jsonw.W{B: b}
	writeStatus(w, st, c)
	return w.B, w.Err
}

// appendAdvanceTail finishes an advance body whose played array was
// opened with '[' before the first of played appendRound calls: it
// closes the array (or writes null when no round was played), then
// appends the stop reason, the status and the closing brace. The
// whole body is json.Marshal(AdvanceResponse{...}) plus a newline.
func appendAdvanceTail(b []byte, played int, stopped string, st *JobStatus, c *sellerText) ([]byte, error) {
	w := &jsonw.W{B: b}
	if played == 0 {
		w.Raw("null")
	} else {
		w.B = append(w.B, ']')
	}
	if stopped != "" {
		w.Raw(`,"stopped":`)
		w.Str(stopped)
	}
	w.Raw(`,"status":`)
	writeStatus(w, st, c)
	w.Raw("}\n")
	return w.B, w.Err
}

// AdvanceBodyEncoder returns the advance handler's body build as a
// function, for timing it on its own: each call appends
// json.Marshal(AdvanceResponse{played, stopped, *st}) plus a newline
// to dst (no rounds are written as null, as the handler writes them).
// The function keeps one per-seller text cache across calls, as a job
// does across advances, so calls over one job's successive advances
// pay what the handler pays.
func AdvanceBodyEncoder() func(dst []byte, played []cmabhs.Round, stopped string, st *JobStatus) ([]byte, error) {
	var c sellerText
	return func(dst []byte, played []cmabhs.Round, stopped string, st *JobStatus) ([]byte, error) {
		dst = append(dst, `{"played":`...)
		for i := range played {
			sep := byte(',')
			if i == 0 {
				sep = '['
			}
			var err error
			if dst, err = appendRound(append(dst, sep), &played[i]); err != nil {
				return dst, err
			}
		}
		return appendAdvanceTail(dst, len(played), stopped, st, &c)
	}
}

// appendSnapshotResponse appends the body json.Encoder writes for
// SnapshotResponse{id, persisted, data}. data is a Session.Save, which
// is already compact and HTML-escaped, so it is copied as it is rather
// than compacted and escaped once more.
func appendSnapshotResponse(b []byte, id string, persisted bool, data []byte) []byte {
	w := jsonw.W{B: b}
	w.Raw(`{"id":`)
	w.Str(id)
	w.Raw(`,"persisted":`)
	w.Bool(persisted)
	w.Raw(`,"snapshot":`)
	w.B = append(w.B, data...)
	w.Raw("}\n")
	return w.B
}

// appendSeries appends the body writeJSON writes for a SeriesResponse
// of id, metric, stride and rounds whose points are value(p) at each
// of pts' rounds: json.Marshal's bytes plus a newline.
func appendSeries(b []byte, id, metric string, stride, rounds int, pts []telemetry.Point, value func(telemetry.Point) float64) ([]byte, error) {
	w := jsonw.W{B: b}
	w.Raw(`{"id":`)
	w.Str(id)
	w.Raw(`,"metric":`)
	w.Str(metric)
	w.Raw(`,"stride":`)
	w.Int(int64(stride))
	w.Raw(`,"rounds":`)
	w.Int(int64(rounds))
	w.Raw(`,"points":[`)
	for i := range pts {
		if i > 0 {
			w.B = append(w.B, ',')
		}
		w.Raw(`{"round":`)
		w.Int(int64(pts[i].Round))
		w.Raw(`,"value":`)
		w.Float(value(pts[i]))
		w.B = append(w.B, '}')
	}
	w.Raw("]}\n")
	return w.B, w.Err
}

// appendEstimates appends the body writeJSON writes for
// EstimatesResponse{id, est}.
func appendEstimates(b []byte, id string, est []float64) ([]byte, error) {
	w := jsonw.W{B: b}
	w.B = append(w.B, '{')
	if id != "" {
		w.Raw(`"id":`)
		w.Str(id)
		w.B = append(w.B, ',')
	}
	w.Raw(`"estimates":`)
	w.Floats(est)
	w.Raw("}\n")
	return w.B, w.Err
}

// appendEvent appends json.Marshal(ev).
func appendEvent(b []byte, ev *JobEvent) ([]byte, error) {
	w := jsonw.W{B: b}
	w.Raw(`{"job_id":`)
	w.Str(ev.JobID)
	w.Raw(`,"round":`)
	w.Int(int64(ev.Round))
	w.Raw(`,"selected":`)
	w.Ints(ev.Selected)
	w.Raw(`,"consumer_price":`)
	w.Float(ev.ConsumerPrice)
	w.Raw(`,"platform_price":`)
	w.Float(ev.PlatformPrice)
	w.Raw(`,"consumer_profit":`)
	w.Float(ev.ConsumerProfit)
	w.Raw(`,"platform_profit":`)
	w.Float(ev.PlatformProfit)
	if ev.NoTrade {
		w.Raw(`,"no_trade":true`)
	}
	if len(ev.FailedSellers) > 0 {
		w.Raw(`,"failed_sellers":`)
		w.Ints(ev.FailedSellers)
	}
	w.Raw(`,"regret":`)
	w.Float(ev.Regret)
	w.Raw(`,"expected_revenue":`)
	w.Float(ev.ExpectedRevenue)
	w.Raw(`,"consumer_spend":`)
	w.Float(ev.ConsumerSpend)
	w.B = append(w.B, '}')
	return w.B, w.Err
}

func writeRound(w *jsonw.W, rd *cmabhs.Round) {
	w.Raw(`{"Round":`)
	w.Int(int64(rd.Round))
	w.Raw(`,"Selected":`)
	w.Ints(rd.Selected)
	w.Raw(`,"ConsumerPrice":`)
	w.Float(rd.ConsumerPrice)
	w.Raw(`,"PlatformPrice":`)
	w.Float(rd.PlatformPrice)
	w.Raw(`,"SensingTimes":`)
	w.Floats(rd.SensingTimes)
	w.Raw(`,"TotalTime":`)
	w.Float(rd.TotalTime)
	w.Raw(`,"ConsumerProfit":`)
	w.Float(rd.ConsumerProfit)
	w.Raw(`,"PlatformProfit":`)
	w.Float(rd.PlatformProfit)
	w.Raw(`,"SellerProfits":`)
	w.Floats(rd.SellerProfits)
	w.Raw(`,"NoTrade":`)
	w.Bool(rd.NoTrade)
	w.Raw(`,"Realized":`)
	w.Float(rd.Realized)
	w.Raw(`,"AggregationRMSE":`)
	w.Float(rd.AggregationRMSE)
	w.B = append(w.B, '}')
}

func writeStatus(w *jsonw.W, st *JobStatus, c *sellerText) {
	w.Raw(`{"id":`)
	w.Str(st.ID)
	w.Raw(`,"sellers":`)
	w.Int(int64(st.Sellers))
	w.Raw(`,"k":`)
	w.Int(int64(st.K))
	w.Raw(`,"rounds":`)
	w.Int(int64(st.Rounds))
	w.Raw(`,"next_round":`)
	w.Int(int64(st.NextRound))
	w.Raw(`,"done":`)
	w.Bool(st.Done)
	if st.Stopped != "" {
		w.Raw(`,"stopped":`)
		w.Str(st.Stopped)
	}
	w.Raw(`,"result":`)
	writeResult(w, st.Result, c)
	w.Raw(`,"metrics":{"rounds_advanced":`)
	w.Int(st.Metrics.RoundsAdvanced)
	w.Raw(`,"rounds_per_sec":`)
	w.Float(st.Metrics.RoundsPerSec)
	w.Raw(`,"last_advance_seconds":`)
	w.Float(st.Metrics.LastAdvanceSeconds)
	w.Raw(`},"links":{"self":`)
	w.Str(st.Links.Self)
	w.Raw(`,"snapshot":`)
	w.Str(st.Links.Snapshot)
	w.Raw(`,"metrics":`)
	w.Str(st.Links.Metrics)
	if st.Links.Owner != "" {
		w.Raw(`,"owner":`)
		w.Str(st.Links.Owner)
	}
	w.B = append(w.B, '}')
	if l := st.Lease; l != nil {
		w.Raw(`,"lease":{"owner":`)
		w.Str(l.Owner)
		w.Raw(`,"epoch":`)
		w.Int(l.Epoch)
		w.Raw(`,"expires_in_s":`)
		w.Float(l.ExpiresInSeconds)
		w.B = append(w.B, '}')
	}
	w.B = append(w.B, '}')
}

func writeResult(w *jsonw.W, r *cmabhs.Result, c *sellerText) {
	if r == nil {
		w.Raw("null")
		return
	}
	w.Raw(`{"Policy":`)
	w.Str(r.Policy)
	w.Raw(`,"RealizedRevenue":`)
	w.Float(r.RealizedRevenue)
	w.Raw(`,"ExpectedRevenue":`)
	w.Float(r.ExpectedRevenue)
	w.Raw(`,"Regret":`)
	w.Float(r.Regret)
	w.Raw(`,"RegretBound":`)
	w.Float(r.RegretBound)
	w.Raw(`,"ConsumerProfit":`)
	w.Float(r.ConsumerProfit)
	w.Raw(`,"PlatformProfit":`)
	w.Float(r.PlatformProfit)
	w.Raw(`,"SellerProfit":`)
	w.Float(r.SellerProfit)
	w.Raw(`,"Rounds":`)
	w.Int(int64(r.Rounds))
	w.Raw(`,"ConsumerSpend":`)
	w.Float(r.ConsumerSpend)
	w.Raw(`,"AggregationRMSE":`)
	w.Float(r.AggregationRMSE)
	w.Raw(`,"DynamicRegret":`)
	w.Float(r.DynamicRegret)
	w.Raw(`,"Stopped":`)
	w.Str(r.Stopped)
	w.Raw(`,"Estimates":`)
	writeCachedFloats(w, r.Estimates, &c.est)
	w.Raw(`,"PerSellerProfit":`)
	writeCachedFloats(w, r.PerSellerProfit, &c.profit)
	w.Raw(`,"PerRound":`)
	jsonw.Array(w, r.PerRound, writeRound)
	w.Raw(`,"Checkpoints":`)
	jsonw.Array(w, r.Checkpoints, writeCheckpoint)
	w.B = append(w.B, '}')
}

func writeCheckpoint(w *jsonw.W, cp *cmabhs.Checkpoint) {
	w.Raw(`{"Round":`)
	w.Int(int64(cp.Round))
	w.Raw(`,"RealizedRevenue":`)
	w.Float(cp.RealizedRevenue)
	w.Raw(`,"ExpectedRevenue":`)
	w.Float(cp.ExpectedRevenue)
	w.Raw(`,"Regret":`)
	w.Float(cp.Regret)
	w.Raw(`,"ConsumerProfit":`)
	w.Float(cp.ConsumerProfit)
	w.Raw(`,"PlatformProfit":`)
	w.Float(cp.PlatformProfit)
	w.Raw(`,"SellerProfit":`)
	w.Float(cp.SellerProfit)
	w.B = append(w.B, '}')
}

// writeCachedFloats writes xs like jsonw.W.Floats, reusing each entry's text from
// *slots while its float bits are unchanged. The slots are resized
// (and so emptied) when the vector's length changes.
func writeCachedFloats(w *jsonw.W, xs []float64, slots *[]floatText) {
	if xs == nil {
		w.Raw("null")
		return
	}
	if len(*slots) != len(xs) {
		*slots = make([]floatText, len(xs))
	}
	cache := *slots
	w.B = append(w.B, '[')
	for i, x := range xs {
		if i > 0 {
			w.B = append(w.B, ',')
		}
		s := &cache[i]
		if bits := math.Float64bits(x); s.n == 0 || s.bits != bits {
			if !jsonw.Finite(x) {
				s.n = 0
				w.Fail(x)
				continue
			}
			s.bits, s.n = bits, uint8(len(jsonw.AppendFloat(s.text[:0], x)))
		}
		w.B = append(w.B, s.text[:s.n]...)
	}
	w.B = append(w.B, ']')
}
