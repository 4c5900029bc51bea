package numutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0, 0, 1, 0},
		{1, 0, 1, 1},
		{3, 3, 3, 3},
	}
	for _, tc := range tests {
		if got := Clamp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	Clamp(0, 1, 0)
}

func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi && (got == x || got == lo || got == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("close values should compare equal")
	}
	if AlmostEqual(1.0, 1.001, 1e-9) {
		t.Error("distant values should not compare equal")
	}
	if !AlmostEqual(0, 0, 1e-9) {
		t.Error("zero equals zero")
	}
	if !AlmostEqual(0, 1e-12, 1e-9) {
		t.Error("tiny vs zero should be equal at abs tolerance")
	}
}

func TestQuadraticRootsKnown(t *testing.T) {
	tests := []struct {
		a, b, c  float64
		r1, r2   float64
		wantsErr bool
	}{
		{1, -3, 2, 1, 2, false},        // (x-1)(x-2)
		{2, 0, -8, -2, 2, false},       // 2x² = 8
		{1, 2, 1, -1, -1, false},       // double root
		{0, 2, -4, 2, 2, false},        // linear
		{1, 0, 1, 0, 0, true},          // complex roots
		{0, 0, 1, 0, 0, true},          // degenerate
		{1, -1e8, 1, 1e-8, 1e8, false}, // numerical stability case
	}
	for _, tc := range tests {
		x1, x2, err := QuadraticRoots(tc.a, tc.b, tc.c)
		if tc.wantsErr {
			if err == nil {
				t.Errorf("QuadraticRoots(%v,%v,%v): want error", tc.a, tc.b, tc.c)
			}
			continue
		}
		if err != nil {
			t.Errorf("QuadraticRoots(%v,%v,%v): %v", tc.a, tc.b, tc.c, err)
			continue
		}
		if !AlmostEqual(x1, tc.r1, 1e-6) || !AlmostEqual(x2, tc.r2, 1e-6) {
			t.Errorf("QuadraticRoots(%v,%v,%v) = (%v,%v), want (%v,%v)",
				tc.a, tc.b, tc.c, x1, x2, tc.r1, tc.r2)
		}
	}
}

// TestQuadraticRootsProperty verifies that returned roots actually
// satisfy the polynomial, for randomly generated root pairs.
func TestQuadraticRootsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		r1 := rng.Float64()*200 - 100
		r2 := rng.Float64()*200 - 100
		a := rng.Float64()*10 + 0.1
		b := -a * (r1 + r2)
		c := a * r1 * r2
		x1, x2, err := QuadraticRoots(a, b, c)
		if err != nil {
			t.Fatalf("roots exist but solver failed: a=%v b=%v c=%v", a, b, c)
		}
		for _, x := range []float64{x1, x2} {
			res := a*x*x + b*x + c
			scale := math.Abs(a*x*x) + math.Abs(b*x) + math.Abs(c) + 1
			if math.Abs(res)/scale > 1e-9 {
				t.Fatalf("root %v does not satisfy poly (residual %v)", x, res)
			}
		}
		if x1 > x2 {
			t.Fatalf("roots not ordered: %v > %v", x1, x2)
		}
	}
}

func TestMaximizeGolden(t *testing.T) {
	// max of -(x-3)² + 7 at x=3
	x, fx := MaximizeGolden(func(x float64) float64 { return -(x-3)*(x-3) + 7 }, -10, 10, 1e-10)
	if !AlmostEqual(x, 3, 1e-6) || !AlmostEqual(fx, 7, 1e-9) {
		t.Errorf("got (%v,%v), want (3,7)", x, fx)
	}
	// Reversed bounds are tolerated.
	x, _ = MaximizeGolden(func(x float64) float64 { return -x * x }, 5, -5, 1e-10)
	if !AlmostEqual(x, 0, 1e-6) {
		t.Errorf("reversed bounds: argmax %v, want 0", x)
	}
}

// TestMaximizeGoldenFineTolTerminates pins termination when tol is
// below the float spacing of a bracket far from zero (here ~1.2e-10
// near 1e6): the bracket can never get that narrow, so without the
// floor on tol the search spun forever.
func TestMaximizeGoldenFineTolTerminates(t *testing.T) {
	lo, hi := 999932.0, 999932.1
	x, _ := MaximizeGolden(func(x float64) float64 { return -(x - 999932.05) * (x - 999932.05) }, lo, hi, 1e-12)
	if !AlmostEqual(x, 999932.05, 1e-9) {
		t.Errorf("argmax %v, want 999932.05", x)
	}
}

func TestMaximizeGoldenLogConcave(t *testing.T) {
	// The consumer-profit shape: ω·ln(1+q·s) − c·s² on s ≥ 0.
	omega, q, c := 1000.0, 0.5, 2.0
	f := func(s float64) float64 { return omega*math.Log(1+q*s) - c*s*s }
	x, _ := MaximizeGolden(f, 0, 100, 1e-10)
	// Analytic argmax: ωq/(1+qs) = 2cs  =>  2cq s² + 2c s − ωq = 0.
	s1, s2, err := QuadraticRoots(2*c*q, 2*c, -omega*q)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(s1, s2)
	if !AlmostEqual(x, want, 1e-6) {
		t.Errorf("argmax %v, want %v", x, want)
	}
}

func TestMaximizeGrid(t *testing.T) {
	// Bimodal: grid search must find the global peak at x≈8.
	f := func(x float64) float64 {
		return math.Exp(-(x-2)*(x-2)) + 2*math.Exp(-(x-8)*(x-8))
	}
	x, fx := MaximizeGrid(f, 0, 10, 200)
	if !AlmostEqual(x, 8, 1e-3) {
		t.Errorf("global argmax %v, want 8", x)
	}
	if fx < 1.9 {
		t.Errorf("max %v too small", fx)
	}
	// Tiny n is coerced.
	x, _ = MaximizeGrid(func(x float64) float64 { return -x * x }, -1, 1, 0)
	if math.Abs(x) > 0.51 {
		t.Errorf("coerced-n argmax %v out of plausible range", x)
	}
}

func TestKahanSum(t *testing.T) {
	var k KahanSum
	// 1 + 1e-16 repeated: naive summation loses the small addends.
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-10
	if !AlmostEqual(k.Sum(), want, 1e-12) {
		t.Errorf("Kahan sum %v, want %v", k.Sum(), want)
	}
	k.Reset()
	if k.Sum() != 0 {
		t.Error("Reset did not zero the accumulator")
	}
}

func TestSumSliceAndMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := SumSlice(xs); got != 10 {
		t.Errorf("SumSlice = %v", got)
	}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != len(want) {
		t.Fatalf("len = %d", len(xs))
	}
	for i := range xs {
		if !AlmostEqual(xs[i], want[i], 1e-12) {
			t.Errorf("xs[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Linspace(0,1,1) should panic")
		}
	}()
	Linspace(0, 1, 1)
}

func BenchmarkMaximizeGolden(b *testing.B) {
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	for i := 0; i < b.N; i++ {
		MaximizeGolden(f, -100, 100, 1e-10)
	}
}

func BenchmarkQuadraticRoots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		QuadraticRoots(1.3, -4.2, 0.9)
	}
}
