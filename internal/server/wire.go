package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"cmabhs"
)

// The broker's two hot wire shapes — a played round and a job's
// status — are written by the hand-written appenders below rather
// than by reflective encoding/json. The bytes are exactly
// json.Marshal's (FuzzStatusBody holds them to it):
//
//   - A float64 is written by appendFloat's Schubfach kernel
//     (ftoa.go): the shortest digits that read back as the same
//     float64, which are the ones strconv's shortest mode picks, in
//     'f' form, or in 'e' form when the value is nonzero and |x| < 1e-6
//     or |x| ≥ 1e21, with a one-digit negative exponent unpadded (e-7,
//     not e-07). Its oracle is json.Marshal(float64):
//     TestAppendFloatMatchesMarshal and FuzzAppendFloat. NaN and ±Inf
//     are an encode error, the same *json.UnsupportedValueError.
//   - A string of printable ASCII that needs no escaping is copied
//     between quotes; anything else (quotes, backslash, <>&, control
//     characters, non-ASCII, invalid UTF-8) is handed to encoding/json.
//   - A nil slice or pointer is null; omitempty fields are left out
//     when empty.
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

// jsonw appends JSON to b. The first value it cannot encode sets err;
// appending continues, and the caller discards the bytes.
type jsonw struct {
	b   []byte
	err error
}

// appendRound appends json.Marshal(rd).
func appendRound(b []byte, rd *cmabhs.Round) ([]byte, error) {
	w := jsonw{b: b}
	w.round(rd)
	return w.b, w.err
}

// appendStatus appends json.Marshal(st), taking the per-seller vectors
// through c.
func appendStatus(b []byte, st *JobStatus, c *sellerText) ([]byte, error) {
	w := jsonw{b: b}
	w.status(st, c)
	return w.b, w.err
}

// appendAdvanceTail finishes an advance body whose played array was
// opened with '[' before the first of played appendRound calls: it
// closes the array (or writes null when no round was played), then
// appends the stop reason, the status and the closing brace. The
// whole body is json.Marshal(AdvanceResponse{...}) plus a newline.
func appendAdvanceTail(b []byte, played int, stopped string, st *JobStatus, c *sellerText) ([]byte, error) {
	w := jsonw{b: b}
	if played == 0 {
		w.raw("null")
	} else {
		w.b = append(w.b, ']')
	}
	if stopped != "" {
		w.raw(`,"stopped":`)
		w.str(stopped)
	}
	w.raw(`,"status":`)
	w.status(st, c)
	w.raw("}\n")
	return w.b, w.err
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
	w := jsonw{b: b}
	w.raw(`{"id":`)
	w.str(id)
	w.raw(`,"persisted":`)
	w.bool(persisted)
	w.raw(`,"snapshot":`)
	w.b = append(w.b, data...)
	w.raw("}\n")
	return w.b
}

func (w *jsonw) round(rd *cmabhs.Round) {
	w.raw(`{"Round":`)
	w.int(int64(rd.Round))
	w.raw(`,"Selected":`)
	w.ints(rd.Selected)
	w.raw(`,"ConsumerPrice":`)
	w.float(rd.ConsumerPrice)
	w.raw(`,"PlatformPrice":`)
	w.float(rd.PlatformPrice)
	w.raw(`,"SensingTimes":`)
	w.floats(rd.SensingTimes)
	w.raw(`,"TotalTime":`)
	w.float(rd.TotalTime)
	w.raw(`,"ConsumerProfit":`)
	w.float(rd.ConsumerProfit)
	w.raw(`,"PlatformProfit":`)
	w.float(rd.PlatformProfit)
	w.raw(`,"SellerProfits":`)
	w.floats(rd.SellerProfits)
	w.raw(`,"NoTrade":`)
	w.bool(rd.NoTrade)
	w.raw(`,"Realized":`)
	w.float(rd.Realized)
	w.raw(`,"AggregationRMSE":`)
	w.float(rd.AggregationRMSE)
	w.b = append(w.b, '}')
}

func (w *jsonw) status(st *JobStatus, c *sellerText) {
	w.raw(`{"id":`)
	w.str(st.ID)
	w.raw(`,"sellers":`)
	w.int(int64(st.Sellers))
	w.raw(`,"k":`)
	w.int(int64(st.K))
	w.raw(`,"rounds":`)
	w.int(int64(st.Rounds))
	w.raw(`,"next_round":`)
	w.int(int64(st.NextRound))
	w.raw(`,"done":`)
	w.bool(st.Done)
	if st.Stopped != "" {
		w.raw(`,"stopped":`)
		w.str(st.Stopped)
	}
	w.raw(`,"result":`)
	w.result(st.Result, c)
	w.raw(`,"metrics":{"rounds_advanced":`)
	w.int(st.Metrics.RoundsAdvanced)
	w.raw(`,"rounds_per_sec":`)
	w.float(st.Metrics.RoundsPerSec)
	w.raw(`,"last_advance_seconds":`)
	w.float(st.Metrics.LastAdvanceSeconds)
	w.raw(`},"links":{"self":`)
	w.str(st.Links.Self)
	w.raw(`,"snapshot":`)
	w.str(st.Links.Snapshot)
	w.raw(`,"metrics":`)
	w.str(st.Links.Metrics)
	if st.Links.Owner != "" {
		w.raw(`,"owner":`)
		w.str(st.Links.Owner)
	}
	w.b = append(w.b, '}')
	if l := st.Lease; l != nil {
		w.raw(`,"lease":{"owner":`)
		w.str(l.Owner)
		w.raw(`,"epoch":`)
		w.int(l.Epoch)
		w.raw(`,"expires_in_s":`)
		w.float(l.ExpiresInSeconds)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, '}')
}

func (w *jsonw) result(r *cmabhs.Result, c *sellerText) {
	if r == nil {
		w.raw("null")
		return
	}
	w.raw(`{"Policy":`)
	w.str(r.Policy)
	w.raw(`,"RealizedRevenue":`)
	w.float(r.RealizedRevenue)
	w.raw(`,"ExpectedRevenue":`)
	w.float(r.ExpectedRevenue)
	w.raw(`,"Regret":`)
	w.float(r.Regret)
	w.raw(`,"RegretBound":`)
	w.float(r.RegretBound)
	w.raw(`,"ConsumerProfit":`)
	w.float(r.ConsumerProfit)
	w.raw(`,"PlatformProfit":`)
	w.float(r.PlatformProfit)
	w.raw(`,"SellerProfit":`)
	w.float(r.SellerProfit)
	w.raw(`,"Rounds":`)
	w.int(int64(r.Rounds))
	w.raw(`,"ConsumerSpend":`)
	w.float(r.ConsumerSpend)
	w.raw(`,"AggregationRMSE":`)
	w.float(r.AggregationRMSE)
	w.raw(`,"DynamicRegret":`)
	w.float(r.DynamicRegret)
	w.raw(`,"Stopped":`)
	w.str(r.Stopped)
	w.raw(`,"Estimates":`)
	w.cachedFloats(r.Estimates, &c.est)
	w.raw(`,"PerSellerProfit":`)
	w.cachedFloats(r.PerSellerProfit, &c.profit)
	w.raw(`,"PerRound":`)
	if r.PerRound == nil {
		w.raw("null")
	} else {
		w.b = append(w.b, '[')
		for i := range r.PerRound {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.round(&r.PerRound[i])
		}
		w.b = append(w.b, ']')
	}
	w.raw(`,"Checkpoints":`)
	if r.Checkpoints == nil {
		w.raw("null")
	} else {
		w.b = append(w.b, '[')
		for i := range r.Checkpoints {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.checkpoint(&r.Checkpoints[i])
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

func (w *jsonw) checkpoint(cp *cmabhs.Checkpoint) {
	w.raw(`{"Round":`)
	w.int(int64(cp.Round))
	w.raw(`,"RealizedRevenue":`)
	w.float(cp.RealizedRevenue)
	w.raw(`,"ExpectedRevenue":`)
	w.float(cp.ExpectedRevenue)
	w.raw(`,"Regret":`)
	w.float(cp.Regret)
	w.raw(`,"ConsumerProfit":`)
	w.float(cp.ConsumerProfit)
	w.raw(`,"PlatformProfit":`)
	w.float(cp.PlatformProfit)
	w.raw(`,"SellerProfit":`)
	w.float(cp.SellerProfit)
	w.b = append(w.b, '}')
}

func (w *jsonw) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonw) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

func (w *jsonw) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *jsonw) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *jsonw) float(x float64) {
	if !finite(x) {
		w.fail(x)
		return
	}
	w.b = appendFloat(w.b, x)
}

func (w *jsonw) ints(xs []int) {
	if xs == nil {
		w.raw("null")
		return
	}
	w.b = append(w.b, '[')
	for i, x := range xs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = strconv.AppendInt(w.b, int64(x), 10)
	}
	w.b = append(w.b, ']')
}

func (w *jsonw) floats(xs []float64) {
	if xs == nil {
		w.raw("null")
		return
	}
	w.b = append(w.b, '[')
	for i, x := range xs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.float(x)
	}
	w.b = append(w.b, ']')
}

// cachedFloats writes xs like floats, reusing each entry's text from
// *slots while its float bits are unchanged. The slots are resized
// (and so emptied) when the vector's length changes.
func (w *jsonw) cachedFloats(xs []float64, slots *[]floatText) {
	if xs == nil {
		w.raw("null")
		return
	}
	if len(*slots) != len(xs) {
		*slots = make([]floatText, len(xs))
	}
	cache := *slots
	w.b = append(w.b, '[')
	for i, x := range xs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		s := &cache[i]
		if bits := math.Float64bits(x); s.n == 0 || s.bits != bits {
			if !finite(x) {
				s.n = 0
				w.fail(x)
				continue
			}
			s.bits, s.n = bits, uint8(len(appendFloat(s.text[:0], x)))
		}
		w.b = append(w.b, s.text[:s.n]...)
	}
	w.b = append(w.b, ']')
}

func (w *jsonw) fail(x float64) {
	if w.err == nil {
		w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
