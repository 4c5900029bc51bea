package jsonw

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestFloorLogs holds the kernel's three floor-log approximations to
// exact math/big floors for every |e| ≤ 4096, which covers every
// argument the kernel and its table pass them (q in [-1074, 971], -k
// in [-292, 324]).
func TestFloorLogs(t *testing.T) {
	t.Parallel()
	const n = 4096
	pow10 := make([]*big.Int, n+2)
	pow10[0] = big.NewInt(1)
	for i := 1; i < len(pow10); i++ {
		pow10[i] = new(big.Int).Mul(pow10[i-1], big.NewInt(10))
	}
	// cmp compares m · 2^a with 10^b, exactly.
	cmp := func(m int64, a, b int) int {
		l, r := big.NewInt(m), big.NewInt(1)
		if a >= 0 {
			l.Lsh(l, uint(a))
		} else {
			r.Lsh(r, uint(-a))
		}
		if b >= 0 {
			r.Mul(r, pow10[b])
		} else {
			l.Mul(l, pow10[-b])
		}
		return l.Cmp(r)
	}
	for e := -n; e <= n; e++ {
		// 10^k ≤ 2^e < 10^(k+1)
		if k := flog10pow2(e); cmp(1, e, k) < 0 || cmp(1, e, k+1) >= 0 {
			t.Fatalf("flog10pow2(%d) = %d, not floor(log10(2^%d))", e, k, e)
		}
		// 10^k ≤ 3 · 2^(e-2) < 10^(k+1)
		if k := flog10threeQuartersPow2(e); cmp(3, e-2, k) < 0 || cmp(3, e-2, k+1) >= 0 {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, not floor(log10(3/4 · 2^%d))", e, k, e)
		}
		// 2^k ≤ 10^e < 2^(k+1)
		if k := flog2pow10(e); cmp(1, k, e) > 0 || cmp(1, k+1, e) <= 0 {
			t.Fatalf("flog2pow10(%d) = %d, not floor(log2(10^%d))", e, k, e)
		}
	}
}

var floatSink []byte

// BenchmarkAppendFloat times the float kernel against strconv's
// shortest 'f' form, the call it replaced, on 1024 values of the
// broker's kind: 16–17 significant digits, magnitudes 2^-6 to 2^6.
func BenchmarkAppendFloat(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = math.Ldexp(1+r.Float64(), r.Intn(12)-6)
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"kernel", AppendFloat},
		{"strconv", func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], xs[i%len(xs)])
			}
			floatSink = buf
		})
	}
}
