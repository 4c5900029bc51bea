package jsonw

import (
	"math"
	"math/big"
	"math/bits"
)

// AppendFloat's kernel: the shortest decimal that reads back as the
// same float64, found by Schubfach (R. Giulietti, "The Schubfach way
// to render doubles", 2020), and written in encoding/json's layout.
//
// For x = c·2^q, Schubfach picks k = floor(log10(2^q)) (or of
// 3/4·2^q when x is a power of two with a closer lower neighbour), so
// that x's rounding interval is between 1 and 10 units of 10^k wide.
// Three 64×128-bit products of c, its lower and its upper interval
// bound with a 126-bit approximation of 10^-k give s = floor(x/10^k)
// and the interval's ends, rounded to odd, at two fractional bits.
// The interval then holds at most one multiple of 10 (sp10 or tp10),
// which is the shortest decimal when it is there; otherwise s or s+1
// is, and the closer of the two (ties to even) is taken when both are
// in. That is the digit string strconv's shortest mode writes, which
// encoding/json uses. Two departures from the Java reference make it
// so: the one-digit-shorter test runs from s ≥ 10, not 100 (Java
// keeps at least two digits), and subnormals get no two-digit rule
// (Go writes 5e-324 and 8e-323).
//
// TestAppendFloatMatchesMarshal and FuzzAppendFloat (in
// internal/server, beside the wire bodies they serve) hold AppendFloat
// to json.Marshal(float64); TestFloorLogs holds the flog helpers to
// exact math/big floors.

const (
	ftoaKMin = -324  // k of 2^-1074, the smallest k the kernel uses
	ftoaKMax = 292   // k of the largest finite float64's interval
	ftoaQMin = -1074 // the binary exponent q of every subnormal
	ftoaCMin = 1 << 52
)

// ftoaG holds g(k) = floor(10^-k · 2^-r) + 1 for k in [kMin, kMax], r
// being the integer that puts 10^-k · 2^-r in [2^125, 2^126): its high
// 63 bits at 2(k-kMin) and its low 63 bits at 2(k-kMin)+1. It is
// computed exactly with math/big when the package initialises.
var ftoaG = ftoaTable()

func ftoaTable() (g [2 * (ftoaKMax - ftoaKMin + 1)]uint64) {
	one, ten := big.NewInt(1), big.NewInt(10)
	var p, v big.Int
	put := func(k int, v *big.Int) {
		v.Add(v, one)
		i := 2 * (k - ftoaKMin)
		g[i] = new(big.Int).Rsh(v, 63).Uint64()
		g[i+1] = v.Uint64() & (1<<63 - 1)
	}
	// e = -k ≥ 0: 10^e · 2^-r, with p = 10^e.
	p.SetInt64(1)
	for e := 0; e <= -ftoaKMin; e++ {
		if r := flog2pow10(e) - 125; r >= 0 {
			v.Rsh(&p, uint(r))
		} else {
			v.Lsh(&p, uint(-r))
		}
		put(-e, &v)
		p.Mul(&p, ten)
	}
	// e = -k < 0: 2^-r / 10^-e, with p = 10^-e and r < 0.
	p.Set(ten)
	for e := -1; e >= -ftoaKMax; e-- {
		v.Lsh(one, uint(125-flog2pow10(e)))
		v.Quo(&v, &p)
		put(-e, &v)
		p.Mul(&p, ten)
	}
	return g
}

// flog10pow2 is floor(log10(2^e)) for |e| ≤ 4096.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

// flog10threeQuartersPow2 is floor(log10(3/4 · 2^e)) for |e| ≤ 4096.
func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 is floor(log2(10^e)) for |e| ≤ 4096.
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// rop is ⌊g·cp / 2^127⌋ for g = g1·2^63 + g0, rounded to odd: its low
// bit is also set when the bits below it are not all zero.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&(1<<63-1)+(1<<63-1))>>63
}

// shortestDecimal returns the shortest f·10^e that reads back as the
// positive finite float64 whose bits are u; f may carry trailing
// zeros.
func shortestDecimal(u uint64) (f uint64, e int) {
	t := u & (ftoaCMin - 1)
	if bq := int(u >> 52); bq == 0 {
		f, e = schubfach(ftoaQMin, t)
	} else if c, mq := ftoaCMin|t, 1075-bq; 0 < mq && mq < 53 && c>>mq<<mq == c {
		f = c >> mq // an integer below 2^53: its own shortest form
	} else {
		f, e = schubfach(-mq, c)
	}
	return f, e
}

// schubfach returns the shortest decimal f·10^e in the rounding
// interval of c·2^q, the closer one (ties to even f) when there are
// two; f may carry trailing zeros.
func schubfach(q int, c uint64) (uint64, int) {
	out := c & 1 // the interval's ends read back as c only when c is even
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != ftoaCMin || q == ftoaQMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	i := 2 * (k - ftoaKMin)
	g1, g0 := ftoaG[i], ftoaG[i+1]
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)
	s := vb >> 2
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes f < 10^17 in decimal at the end of buf, two digits
// at a time, and returns the index of its first digit.
func putDigits(buf *[24]byte, f uint64) int {
	i := len(buf)
	if f >= 1e8 { // the low eight digits, in four independent pairs
		hi := f / 1e8
		lo := uint32(f - hi*1e8)
		a, c := lo/10000, lo%10000
		a1, a2, c1, c2 := a/100, a%100, c/100, c%100
		buf[16], buf[17] = digitPairs[2*a1], digitPairs[2*a1+1]
		buf[18], buf[19] = digitPairs[2*a2], digitPairs[2*a2+1]
		buf[20], buf[21] = digitPairs[2*c1], digitPairs[2*c1+1]
		buf[22], buf[23] = digitPairs[2*c2], digitPairs[2*c2+1]
		i, f = 16, hi
	}
	v := uint32(f)
	for v >= 100 {
		q := v / 100
		r := v - q*100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		v = q
	}
	if v >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		i--
		buf[i] = byte('0' + v)
	}
	return i
}

// AppendFloat appends finite x as encoding/json writes a float64: the
// shortest round-trip digits in 'f' form, or in 'e' form when x is
// nonzero and |x| < 1e-6 or |x| ≥ 1e21, with an unpadded exponent
// (e-7, e+21). The digits are laid out in place in one buffer, whose
// free front holds the "0.00000" or the shifted point, and appended
// once.
func AppendFloat(b []byte, x float64) []byte {
	u := math.Float64bits(x)
	if u>>63 != 0 {
		b = append(b, '-')
		u &^= 1 << 63
	}
	if u == 0 {
		return append(b, '0')
	}
	f, e := shortestDecimal(u)
	var buf [24]byte
	i, n := putDigits(&buf, f), len(buf)
	for buf[n-1] == '0' {
		n--
		e++
	}
	nd := n - i
	dp := nd + e // x = 0.d × 10^dp, d = buf[i:n]
	if abs := math.Float64frombits(u); abs < 1e-6 || abs >= 1e21 {
		if nd > 1 { // d[0] '.' d[1:]
			i--
			buf[i], buf[i+1] = buf[i+1], '.'
		}
		b = append(b, buf[i:n]...)
		x10 := dp - 1
		if x10 < 0 {
			b = append(b, 'e', '-')
			x10 = -x10
		} else {
			b = append(b, 'e', '+')
		}
		if x10 >= 100 {
			b = append(b, byte('0'+x10/100))
			x10 %= 100
		} else if x10 < 10 {
			return append(b, byte('0'+x10))
		}
		return append(b, digitPairs[2*x10], digitPairs[2*x10+1])
	}
	switch {
	case dp <= 0: // "0." and -dp zeros before d (dp ≥ -5 here)
		for ; dp < 0; dp++ {
			i--
			buf[i] = '0'
		}
		i -= 2
		buf[i], buf[i+1] = '0', '.'
	case dp < nd: // d[:dp] '.' d[dp:]
		for j := i; j < i+dp; j++ {
			buf[j-1] = buf[j]
		}
		i--
		buf[i+dp] = '.'
	default: // d and dp-nd zeros (dp ≤ 21 here)
		b = append(b, buf[i:n]...)
		return append(b, "000000000000000000000"[:dp-nd]...)
	}
	return append(b, buf[i:n]...)
}
