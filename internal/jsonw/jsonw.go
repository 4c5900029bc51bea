// Package jsonw is the one JSON codec for what the broker persists and
// serves: a session snapshot (Save and its resume), a job's status,
// played rounds, series, estimates and live events. Each shape has a
// hand-written encoder on W and, for the snapshot, a strict decoder on
// R; none goes through reflection.
//
// W writes exactly json.Marshal's bytes:
//
//   - A float64 is written by AppendFloat's Schubfach kernel (ftoa.go):
//     the shortest digits that read back as the same float64, in 'f'
//     form, or in 'e' form when the value is nonzero and |x| < 1e-6 or
//     |x| ≥ 1e21. NaN and ±Inf are an encode error, the same
//     *json.UnsupportedValueError json.Marshal returns.
//   - A string of printable ASCII that needs no escaping is copied
//     between quotes; anything else (quotes, backslash, <>&, control
//     characters, non-ASCII, invalid UTF-8) is handed to encoding/json.
//   - A []byte is standard base64 in quotes; a nil slice or pointer is
//     null. Callers leave omitempty fields out when empty.
//
// The oracles are encoding/json and strconv themselves:
// FuzzSaveEncoding (the Save envelope, Config and core.State, both
// ways), FuzzResumeSession (R's refusals), FuzzStatusBody and
// FuzzServedBodies (the broker's bodies) and FuzzAppendFloat (floats).
// R checks a number's grammar itself and leaves its value to
// strconv.ParseInt, ParseUint or ParseFloat on the literal's bytes.
package jsonw

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// W appends JSON to B. The first value it cannot encode sets Err;
// appending continues, and the caller discards B.
type W struct {
	B   []byte
	Err error
}

// Raw appends s as it is: punctuation and keys.
func (w *W) Raw(s string) { w.B = append(w.B, s...) }

// Int appends n.
func (w *W) Int(n int64) { w.B = strconv.AppendInt(w.B, n, 10) }

// Uint appends n.
func (w *W) Uint(n uint64) { w.B = strconv.AppendUint(w.B, n, 10) }

// Bool appends true or false.
func (w *W) Bool(v bool) { w.B = strconv.AppendBool(w.B, v) }

// Str appends s as a JSON string, HTML-escaped as json.Marshal does.
func (w *W) Str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			w.B = append(w.B, q...)
			return
		}
	}
	w.B = append(w.B, '"')
	w.B = append(w.B, s...)
	w.B = append(w.B, '"')
}

// Float appends x, or fails on NaN and ±Inf.
func (w *W) Float(x float64) {
	if !Finite(x) {
		w.Fail(x)
		return
	}
	w.B = AppendFloat(w.B, x)
}

// Bytes appends p as standard base64 in quotes, or null when nil.
func (w *W) Bytes(p []byte) {
	if p == nil {
		w.Raw("null")
		return
	}
	w.B = append(w.B, '"')
	w.B = base64.StdEncoding.AppendEncode(w.B, p)
	w.B = append(w.B, '"')
}

// Array appends xs as an array whose elements elem writes, or null
// when xs is nil.
func Array[T any](w *W, xs []T, elem func(w *W, x *T)) {
	if xs == nil {
		w.Raw("null")
		return
	}
	w.B = append(w.B, '[')
	for i := range xs {
		if i > 0 {
			w.B = append(w.B, ',')
		}
		elem(w, &xs[i])
	}
	w.B = append(w.B, ']')
}

// Ints appends xs as an array, or null when nil.
func (w *W) Ints(xs []int) { Array(w, xs, func(w *W, x *int) { w.Int(int64(*x)) }) }

// Int64s appends xs as an array, or null when nil.
func (w *W) Int64s(xs []int64) { Array(w, xs, func(w *W, x *int64) { w.Int(*x) }) }

// Floats appends xs as an array, or null when nil.
func (w *W) Floats(xs []float64) { Array(w, xs, func(w *W, x *float64) { w.Float(*x) }) }

// Bools appends xs as an array, or null when nil.
func (w *W) Bools(xs []bool) { Array(w, xs, func(w *W, x *bool) { w.Bool(*x) }) }

// Fail records the error json.Marshal returns for the non-finite x,
// unless an earlier value already failed.
func (w *W) Fail(x float64) {
	if w.Err == nil {
		w.Err = &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
	}
}

// Finite reports whether x is neither NaN nor ±Inf.
func Finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
