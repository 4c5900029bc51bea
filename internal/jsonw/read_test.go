package jsonw

import (
	"reflect"
	"testing"
)

// shape is a small object in the form R reads: a required int, an
// omitempty string, a nullable float slice, a uint and a bool.
type shape struct {
	N  int
	S  string
	Xs []float64
	U  uint64
	B  bool
}

func readShape(data string) (v shape, ok bool) {
	r := NewReader([]byte(data))
	r.Open()
	r.Key("n")
	v.N = r.Int()
	if r.OptKey("s") {
		v.S = r.Str()
	}
	r.Key("xs")
	v.Xs = r.Floats()
	r.Key("u")
	v.U = r.Uint64()
	r.Key("b")
	v.B = r.Bool()
	r.Close()
	return v, r.End()
}

// TestReaderTakesAndRefuses: R decodes its shape as encoding/json
// would, whitespace and all, and refuses every departure from it.
func TestReaderTakesAndRefuses(t *testing.T) {
	for in, want := range map[string]shape{
		`{"n":-0,"xs":null,"u":0,"b":false}`:                              {},
		` { "n" : 7 , "s" : "a b" , "xs" : [ ] , "u":1,"b":true }` + "\n": {N: 7, S: "a b", Xs: []float64{}, U: 1, B: true},
		`{"n":-9223372036854775808,"xs":[1e2,-0.5,5e-324],"u":18446744073709551615,"b":true}`: {
			N: -9223372036854775808, Xs: []float64{100, -0.5, 5e-324}, U: 18446744073709551615, B: true},
	} {
		got, ok := readShape(in)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: read %+v, ok %v; want %+v", in, got, ok, want)
		}
	}
	for _, in := range []string{
		``, `{}`, `null`,
		`{"n":1,"xs":[],"u":1,"b":true} x`,          // trailing bytes
		`{"n":1,"n":1,"xs":[],"u":1,"b":true}`,      // repeated key
		`{"N":1,"xs":[],"u":1,"b":true}`,            // case-folded key
		`{"xs":[],"n":1,"u":1,"b":true}`,            // misplaced key
		`{"n":1,"extra":1,"xs":[],"u":1,"b":true}`,  // unknown key
		`{"n":1,"s":null,"xs":[],"u":1,"b":true}`,   // null for an omitempty field
		`{"n":1,"s":"a\"b","xs":[],"u":1,"b":true}`, // escape
		`{"n":1,"s":"é","xs":[],"u":1,"b":true}`,    // non-ASCII
		`{"n":01,"xs":[],"u":1,"b":true}`,           // leading zero
		`{"n":1.0,"xs":[],"u":1,"b":true}`,          // fraction in an int
		`{"n":1e2,"xs":[],"u":1,"b":true}`,          // exponent in an int
		`{"n":9223372036854775808,"xs":[],"u":1,"b":true}`,
		`{"n":1,"xs":[1.],"u":1,"b":true}`,
		`{"n":1,"xs":[1e],"u":1,"b":true}`,
		`{"n":1,"xs":[-],"u":1,"b":true}`,
		`{"n":1,"xs":[+1],"u":1,"b":true}`,
		`{"n":1,"xs":[1e400],"u":1,"b":true}`, // out of float64's range
		`{"n":1,"xs":[1,],"u":1,"b":true}`,
		`{"n":1,"xs":[,1],"u":1,"b":true}`,
		`{"n":1,"xs":[1],"u":-0,"b":true}`,
		`{"n":1,"xs":[1],"u":18446744073709551616,"b":true}`,
		`{"n":1,"xs":[1],"u":1,"b":tru}`,
		`{"n":1,"xs":[1],"u":1,"b":null}`,
		`{"n":1,"xs":[1],"u":1,"b":true`,
	} {
		if got, ok := readShape(in); ok {
			t.Errorf("%s: read %+v", in, got)
		}
	}
}
