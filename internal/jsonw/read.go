package jsonw

import (
	"bytes"
	"encoding/base64"
	"strconv"
	"unsafe"
)

// R reads JSON of one fixed shape in one pass, the way W writes it:
// each object's keys in the order the caller asks for them, each
// spelled exactly and present at most once. Whatever else it meets —
// an unknown, repeated, misplaced or case-folded key, an escape or a
// non-ASCII byte in a string, a null where the writer puts none, a
// number outside JSON's grammar or its Go type's range, trailing bytes
// — makes it fail for good: every later call returns a zero value at
// once, and End reports false. The caller then hands the input to a
// general decoder, so R never has to explain a refusal.
//
// What R accepts it decodes as encoding/json does into fresh values:
// a number to what strconv.ParseInt, ParseUint or ParseFloat returns
// for its literal, [] as an empty non-nil slice, null as a nil slice or pointer, []byte from
// standard base64. Whitespace between tokens is skipped.
type R struct {
	data  []byte
	i     int
	first bool // the innermost open object has no key read yet
	bad   bool
}

// NewReader returns a reader over data.
func NewReader(data []byte) *R { return &R{data: data} }

// Fail marks the input refused, for a value the caller decoded and
// does not take (a version it does not read, say).
func (r *R) Fail() { r.bad = true }

// End reports whether the input was read whole: no failure, and
// nothing but whitespace left.
func (r *R) End() bool {
	r.ws()
	return !r.bad && r.i == len(r.data)
}

// ws skips whitespace.
func (r *R) ws() {
	for r.i < len(r.data) {
		switch r.data[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// byte consumes c, the next token, or fails.
func (r *R) byte(c byte) {
	if r.bad {
		return
	}
	r.ws()
	if r.i < len(r.data) && r.data[r.i] == c {
		r.i++
		return
	}
	r.bad = true
}

// peek returns the next token's first byte, or 0 at the end.
func (r *R) peek() byte {
	r.ws()
	if r.i < len(r.data) {
		return r.data[r.i]
	}
	return 0
}

// Open reads the '{' of an object.
func (r *R) Open() {
	r.byte('{')
	r.first = true
}

// Close reads the '}' that ends an object.
func (r *R) Close() {
	r.byte('}')
	r.first = false
}

// Key reads the object's next key, which must be name.
func (r *R) Key(name string) {
	if !r.key(name) {
		r.bad = true
	}
}

// OptKey reads the object's next key if it is name, and reports
// whether it did; otherwise it reads nothing. It is for omitempty
// fields, which are never null, so a null value after the key fails.
func (r *R) OptKey(name string) bool {
	if !r.key(name) {
		return false
	}
	if r.peek() == 'n' {
		r.bad = true
	}
	return !r.bad
}

// key reads the object's next key and its colon if the key is name,
// and reports whether it did; otherwise it reads nothing.
func (r *R) key(name string) bool {
	if r.bad {
		return false
	}
	i := r.i
	if !r.first {
		if r.peek() != ',' {
			return false
		}
		r.i++
	}
	r.ws()
	d := r.data[r.i:]
	if len(d) < len(name)+2 || d[0] != '"' || string(d[1:1+len(name)]) != name || d[1+len(name)] != '"' {
		r.i = i
		return false
	}
	r.i += len(name) + 2
	r.byte(':')
	r.first = false
	return !r.bad
}

// Null reads a null if one is next, and reports whether it did.
func (r *R) Null() bool {
	if r.bad || r.peek() != 'n' {
		return false
	}
	if len(r.data)-r.i >= 4 && string(r.data[r.i:r.i+4]) == "null" {
		r.i += 4
		return true
	}
	r.bad = true
	return false
}

// array reads the '[' of an array and returns a capacity hint for
// its elements and the length of the text the hint counts over. The
// text runs to the first ']', and the hint is one more than its
// commas, or than its "},{" when the elements are objects. That is
// the element count for an array of scalars, or of objects with no
// array inside (a seller, a checkpoint). An object that holds an
// array (a played round) ends the text inside the first element, so
// the hint is 1 and the slice grows by append. The hint is 0 for an
// array of arrays. For each element, call more with the number read
// so far.
func (r *R) array() (n, span int) {
	r.byte('[')
	if r.bad {
		return 0, 0
	}
	c := r.peek()
	rest := r.data[r.i:]
	span = bytes.IndexByte(rest, ']')
	if span < 0 {
		span = len(rest)
	}
	switch c {
	case ']', '[':
		return 0, 0
	case '{':
		return bytes.Count(rest[:span], []byte("},{")) + 1, span
	}
	return bytes.Count(rest[:span], []byte(",")) + 1, span
}

// more reports whether the array holds an element after the n read so
// far, reading the comma before it; at the end it reads the ']'.
func (r *R) more(n int) bool {
	if r.bad {
		return false
	}
	if r.peek() == ']' {
		r.i++
		return false
	}
	if n > 0 {
		r.byte(',')
	}
	return !r.bad
}

// number reads a JSON number literal, failing on anything outside
// JSON's grammar, and returns its bytes and whether it is an integer
// (no fraction and no exponent).
func (r *R) number() (lit []byte, integral bool) {
	if r.bad {
		return nil, false
	}
	r.ws()
	d, i := r.data, r.i
	digits := func() int {
		start := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if k := digits(); k == 0 || k > 1 && d[i-k] == '0' {
		r.bad = true
		return nil, false
	}
	integral = true
	if i < len(d) && d[i] == '.' {
		i++
		if digits() == 0 {
			r.bad = true
			return nil, false
		}
		integral = false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '-' || d[i] == '+') {
			i++
		}
		if digits() == 0 {
			r.bad = true
			return nil, false
		}
		integral = false
	}
	lit, r.i = d[r.i:i], i
	return lit, integral
}

// Int64 reads an integer that fits an int64.
func (r *R) Int64() int64 {
	return r.int(64)
}

// Int reads an integer that fits an int.
func (r *R) Int() int {
	return int(r.int(strconv.IntSize))
}

func (r *R) int(bits int) int64 {
	lit, integral := r.number()
	if r.bad || !integral {
		r.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		r.bad = true
	}
	return v
}

// Uint64 reads a non-negative integer that fits a uint64.
func (r *R) Uint64() uint64 {
	lit, integral := r.number()
	if r.bad || !integral {
		r.bad = true
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, 64) // refuses "-0" too
	if err != nil {
		r.bad = true
	}
	return v
}

// Float reads a number that parses to a finite float64.
func (r *R) Float() float64 {
	lit, _ := r.number()
	if r.bad {
		return 0
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.bad = true
	}
	return x
}

// Bool reads true or false.
func (r *R) Bool() bool {
	if r.bad {
		return false
	}
	r.ws()
	d := r.data[r.i:]
	switch {
	case len(d) >= 4 && string(d[:4]) == "true":
		r.i += 4
		return true
	case len(d) >= 5 && string(d[:5]) == "false":
		r.i += 5
		return false
	}
	r.bad = true
	return false
}

// strBytes reads a string of printable ASCII without escapes and
// returns the bytes between its quotes.
func (r *R) strBytes() []byte {
	r.byte('"')
	if r.bad {
		return nil
	}
	for i := r.i; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			s := r.data[r.i:i]
			r.i = i + 1
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			r.bad = true
			return nil
		}
	}
	r.bad = true
	return nil
}

// Str reads a string of printable ASCII without escapes.
func (r *R) Str() string {
	return string(r.strBytes())
}

// Bytes reads a base64 string as []byte, or null as nil.
func (r *R) Bytes() []byte {
	if r.Null() {
		return nil
	}
	s := r.strBytes()
	if r.bad {
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		r.bad = true
	}
	return b[:n]
}

// Slice reads an array whose elements elem reads, or null as nil. The
// slice starts at array's capacity hint, but never at more than twice
// the bytes of the text counted: a run of commas cannot make it
// allocate more than the input it covers.
func Slice[T any](r *R, elem func(r *R, v *T)) []T {
	if r.Null() {
		return nil
	}
	var zero T
	n, span := r.array()
	if size := int(unsafe.Sizeof(zero)); size > 0 && n*size > 2*span {
		n = 2 * span / size
	}
	s := make([]T, 0, n)
	for r.more(len(s)) {
		s = append(s, zero)
		elem(r, &s[len(s)-1])
	}
	return s
}

// Ints reads an array of ints, or null as nil.
func (r *R) Ints() []int {
	return Slice(r, func(r *R, v *int) { *v = r.Int() })
}

// Int64s reads an array of int64s, or null as nil.
func (r *R) Int64s() []int64 {
	return Slice(r, func(r *R, v *int64) { *v = r.Int64() })
}

// Floats reads an array of float64s, or null as nil.
func (r *R) Floats() []float64 {
	return Slice(r, func(r *R, v *float64) { *v = r.Float() })
}

// Bools reads an array of bools, or null as nil.
func (r *R) Bools() []bool {
	return Slice(r, func(r *R, v *bool) { *v = r.Bool() })
}
