// Package jsonwtest fills values of any type from fuzz input, for the
// differential tests that hold internal/jsonw's writers and reader to
// encoding/json. A filled value reaches every shape json.Marshal
// distinguishes: nil, empty and non-empty slices, nil and set
// pointers, zero and non-zero omitempty fields, strings that need
// escaping, and floats from subnormals to NaN. Because it walks the
// type by reflection, a field added to a persisted or served type is
// filled, and so checked, without a change here.
package jsonwtest

import (
	"math"
	"reflect"
)

// Source draws values from fuzz input, then from a splitmix64 stream
// seeded by it once the input runs out.
type Source struct {
	data []byte
	i    int
	x    uint64
}

// NewSource returns a source over data.
func NewSource(data []byte) *Source {
	s := &Source{data: data, x: uint64(len(data))}
	for _, c := range data {
		s.x = s.x*31 + uint64(c)
	}
	return s
}

// Byte returns the next input byte.
func (s *Source) Byte() byte {
	if s.i < len(s.data) {
		s.i++
		return s.data[s.i-1]
	}
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return byte(z ^ z>>31)
}

// Uint64 returns the next eight input bytes as one number.
func (s *Source) Uint64() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(s.Byte())
	}
	return u
}

// Float returns a float64: usually an ordinary value with up to 17
// significant digits, sometimes raw bits, an edge value, or (rarely,
// so that most values encode) NaN or an infinity.
func (s *Source) Float() float64 {
	switch b := s.Byte(); {
	case b == 0xff:
		return math.NaN()
	case b == 0xfe:
		return math.Inf(1)
	case b == 0xfd:
		return math.Inf(-1)
	case b >= 0xf0:
		edges := [...]float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e21, math.MaxFloat64, -1e21}
		return edges[int(b)%len(edges)]
	case b >= 0xd0:
		return math.Float64frombits(s.Uint64())
	case b%2 == 0:
		return float64(int8(s.Byte()))
	default:
		return float64(int64(s.Uint64())>>11) / float64(uint64(1)<<(s.Byte()%60))
	}
}

// Fill picks strings from plain, three times in four, and from odd:
// strings json.Marshal escapes or passes through as non-ASCII.
var (
	plain = [...]string{"", "a", "job-1", "seller-12", "cmab-hs", "regret", " "}
	odd   = [...]string{"<&>", `"q"`, `\`, "\x00\n", "é", "\xff", "\u2028"}
)

// Fill sets every settable field reachable from the pointer v.
func (s *Source) Fill(v any) {
	s.fill(reflect.ValueOf(v).Elem())
}

func (s *Source) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(s.Byte()&1 == 1)
	case reflect.Int, reflect.Int64, reflect.Int32:
		switch b := s.Byte(); b % 8 {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(int64(s.Uint64()))
		case 2:
			v.SetInt(-int64(s.Byte()))
		default:
			v.SetInt(int64(s.Byte()) << (b % 3 * 8))
		}
	case reflect.Uint64, reflect.Uint32, reflect.Uint:
		v.SetUint(s.Uint64())
	case reflect.Uint8:
		v.SetUint(uint64(s.Byte()))
	case reflect.Float64:
		v.SetFloat(s.Float())
	case reflect.String:
		if b := s.Byte(); b%4 != 0 {
			v.SetString(plain[int(b/4)%len(plain)])
		} else {
			v.SetString(odd[int(b/4)%len(odd)])
		}
	case reflect.Slice:
		switch b := s.Byte(); b % 4 {
		case 0:
			v.SetZero()
		default:
			n := int(b/4) % 4 // an empty slice one time in four
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				s.fill(v.Index(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			s.fill(v.Index(i))
		}
	case reflect.Pointer:
		if s.Byte()%3 == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		s.fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				s.fill(f)
			}
		}
	}
}
