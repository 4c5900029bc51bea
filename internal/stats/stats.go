// Package stats provides the summary-statistics substrate used by the
// experiment harness: streaming moment accumulators, series
// aggregation across replications, quantiles, and confidence
// intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance with Welford's
// algorithm, plus min/max. The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of samples seen.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns a normal-approximation 95% confidence half-width for
// the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Merge folds another accumulator into a (parallel reduction), using
// Chan et al.'s pairwise update.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Point is one (X, Y) sample of a result series, with dispersion.
type Point struct {
	X     float64 // swept parameter value
	Y     float64 // mean across replications
	Err   float64 // 95% CI half-width
	Count int64   // replications folded in
}

// Series is a named sequence of points, the unit the figure renderers
// consume.
type Series struct {
	Name   string
	Points []Point
}

// SeriesBuilder aggregates replicated observations keyed by X into a
// Series. It is not safe for concurrent use; run replications into
// separate builders and Merge them, or collect via channels.
type SeriesBuilder struct {
	name string
	accs map[float64]*Accumulator
}

// NewSeriesBuilder returns an empty builder for a series called name.
func NewSeriesBuilder(name string) *SeriesBuilder {
	return &SeriesBuilder{name: name, accs: make(map[float64]*Accumulator)}
}

// Observe records a y observation for sweep value x.
func (b *SeriesBuilder) Observe(x, y float64) {
	acc, ok := b.accs[x]
	if !ok {
		acc = &Accumulator{}
		b.accs[x] = acc
	}
	acc.Add(y)
}

// Merge folds another builder's observations into b.
func (b *SeriesBuilder) Merge(other *SeriesBuilder) {
	for x, acc := range other.accs {
		mine, ok := b.accs[x]
		if !ok {
			cp := *acc
			b.accs[x] = &cp
			continue
		}
		mine.Merge(acc)
	}
}

// Series renders the aggregated points sorted by X.
func (b *SeriesBuilder) Series() Series {
	xs := make([]float64, 0, len(b.accs))
	for x := range b.accs {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	s := Series{Name: b.name, Points: make([]Point, 0, len(xs))}
	for _, x := range xs {
		acc := b.accs[x]
		s.Points = append(s.Points, Point{X: x, Y: acc.Mean(), Err: acc.CI95(), Count: acc.N()})
	}
	return s
}

// FormatFloat renders v compactly for tables: integers without
// decimals, large magnitudes in scientific notation, everything else
// with four significant decimals.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e7:
		return fmt.Sprintf("%.0f", v)
	case av >= 1e7 || (av < 1e-3 && av > 0):
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
