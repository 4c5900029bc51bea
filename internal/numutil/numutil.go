// Package numutil provides the small numeric toolkit the rest of the
// system is built on: root finding, scalar maximization, compensated
// summation, clamping, and approximate float comparison.
//
// The Go standard library deliberately ships no optimization routines,
// so the closed-form game solutions in internal/game are cross-checked
// against the maximizers implemented here.
package numutil

import (
	"errors"
	"math"
)

// Eps is the default relative tolerance used by the approximate
// comparison helpers.
const Eps = 1e-9

// ErrNoRoot is returned by root finders when no real root exists in
// the requested domain.
var ErrNoRoot = errors.New("numutil: no real root")

// ErrBadBracket is returned by Bisect when f(lo) and f(hi) do not
// bracket a sign change.
var ErrBadBracket = errors.New("numutil: interval does not bracket a root")

// Clamp returns x restricted to [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("numutil: Clamp with lo > hi")
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// AlmostEqual reports whether a and b are equal within tol relative
// tolerance (absolute for values near zero).
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if a == 0 || b == 0 || diff < math.SmallestNonzeroFloat64 {
		return diff < tol
	}
	return diff/(math.Abs(a)+math.Abs(b)) < tol
}

// QuadraticRoots solves a·x² + b·x + c = 0 for real roots, returned in
// ascending order. The implementation uses the numerically stable
// citardauq form to avoid catastrophic cancellation when b² ≫ 4ac.
// If a == 0 the equation is linear; a single root is returned twice.
func QuadraticRoots(a, b, c float64) (x1, x2 float64, err error) {
	if a == 0 {
		if b == 0 {
			return 0, 0, ErrNoRoot
		}
		r := -c / b
		return r, r, nil
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, ErrNoRoot
	}
	sq := math.Sqrt(disc)
	// q = -(b + sign(b)·√disc)/2 keeps the additions same-signed.
	var q float64
	if b >= 0 {
		q = -(b + sq) / 2
	} else {
		q = -(b - sq) / 2
	}
	x1 = q / a
	if q != 0 {
		x2 = c / q
	} else {
		x2 = 0
	}
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	return x1, x2, nil
}

// Bisect finds a root of f in [lo, hi] assuming f(lo) and f(hi) have
// opposite signs. It returns a point x with |f(x)| small or the
// interval narrowed below tol.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrBadBracket
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// invPhi is the reciprocal golden ratio used by MaximizeGolden.
var invPhi = (math.Sqrt(5) - 1) / 2

// MaximizeGolden maximizes a unimodal function f on [lo, hi] by
// golden-section search and returns (argmax, max). It performs enough
// iterations to narrow the interval below tol — or below a few float
// spacings at the bracket, when tol is finer than that: the probes
// would round onto the endpoints and the bracket stop shrinking.
func MaximizeGolden(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	tol = math.Max(tol, 8*0x1p-52*math.Max(math.Abs(lo), math.Abs(hi)))
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}

// MaximizeGrid maximizes f on [lo, hi] by evaluating n+1 evenly spaced
// points and refining the best bracket with golden-section search.
// Unlike MaximizeGolden it tolerates multimodal f, as long as the grid
// is fine enough to land in the basin of the global maximum.
func MaximizeGrid(f func(float64) float64, lo, hi float64, n int) (x, fx float64) {
	if n < 2 {
		n = 2
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	step := (hi - lo) / float64(n)
	bestI, bestF := 0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		v := f(lo + float64(i)*step)
		if v > bestF {
			bestI, bestF = i, v
		}
	}
	a := lo + float64(maxInt(bestI-1, 0))*step
	b := lo + float64(minInt(bestI+1, n))*step
	return MaximizeGolden(f, a, b, (hi-lo)*1e-10+1e-12)
}

// MaximizeGridZoom is MaximizeGrid with levels of bracket re-gridding
// before the golden polish. A single grid pass followed by golden
// search locks onto one basin of the winning bracket, which picks the
// wrong local maximum when a bracket narrower than one grid step
// holds several (e.g. profit curves kinked at activation/saturation
// prices). Each zoom level shrinks the bracket by n/2, so basins down
// to (hi−lo)·(2/n)^(levels−1) wide are resolved.
func MaximizeGridZoom(f func(float64) float64, lo, hi float64, n, levels int) (x, fx float64) {
	if n < 2 {
		n = 2
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	for l := 1; l < levels; l++ {
		step := (hi - lo) / float64(n)
		bestI, bestF := 0, math.Inf(-1)
		for i := 0; i <= n; i++ {
			if v := f(lo + float64(i)*step); v > bestF {
				bestI, bestF = i, v
			}
		}
		a := lo + float64(maxInt(bestI-1, 0))*step
		b := lo + float64(minInt(bestI+1, n))*step
		lo, hi = a, b
	}
	return MaximizeGrid(f, lo, hi, n)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// KahanSum accumulates floats with compensated (Kahan) summation,
// keeping error O(1) ULP regardless of the number of addends.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates x into the sum.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// Reset zeroes the accumulator.
func (k *KahanSum) Reset() { k.sum, k.c = 0, 0 }

// KahanState is the serializable state of a KahanSum. Both words are
// preserved so a restored accumulator continues bit-for-bit — dropping
// the compensation term would let restored and uninterrupted runs
// drift apart in the low bits.
type KahanState struct {
	Sum float64 `json:"sum"`
	C   float64 `json:"c"`
}

// State exports the accumulator.
func (k *KahanSum) State() KahanState { return KahanState{Sum: k.sum, C: k.c} }

// Restore overwrites the accumulator with an exported state.
func (k *KahanSum) Restore(st KahanState) { k.sum, k.c = st.Sum, st.C }

// SumSlice returns the compensated sum of xs.
func SumSlice(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return SumSlice(xs) / float64(len(xs))
}

// Linspace returns n evenly spaced points from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("numutil: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
