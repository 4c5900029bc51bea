package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero value should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %v", a.Mean())
	}
	// Unbiased variance of the classic data set: 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.StdErr() <= 0 || a.CI95() <= a.StdErr() {
		t.Error("StdErr/CI95 should be positive and CI wider")
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("n=1 dispersion must be zero")
	}
	if a.Min() != 3 || a.Max() != 3 {
		t.Error("n=1 min/max must equal the sample")
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		var whole, left, right Accumulator
		nl, nr := rng.Intn(100), 1+rng.Intn(100)
		for i := 0; i < nl; i++ {
			x := rng.NormFloat64() * 10
			whole.Add(x)
			left.Add(x)
		}
		for i := 0; i < nr; i++ {
			x := rng.NormFloat64()*10 + 5
			whole.Add(x)
			right.Add(x)
		}
		left.Merge(&right)
		if left.N() != whole.N() {
			t.Fatalf("merged N %d != %d", left.N(), whole.N())
		}
		if math.Abs(left.Mean()-whole.Mean()) > 1e-9 {
			t.Fatalf("merged mean %v != %v", left.Mean(), whole.Mean())
		}
		if math.Abs(left.Variance()-whole.Variance()) > 1e-9 {
			t.Fatalf("merged var %v != %v", left.Variance(), whole.Variance())
		}
		if left.Min() != whole.Min() || left.Max() != whole.Max() {
			t.Fatal("merged min/max mismatch")
		}
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // empty rhs: no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Error("merge with empty changed state")
	}
	b.Merge(&a) // empty lhs: copy
	if b.N() != 2 || b.Mean() != 2 {
		t.Error("empty lhs should copy rhs")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if Median(xs) != 3 {
		t.Errorf("median = %v", Median(xs))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 5 {
		t.Error("out-of-range q should clamp")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestSeriesBuilder(t *testing.T) {
	b := NewSeriesBuilder("revenue")
	b.Observe(2, 10)
	b.Observe(1, 5)
	b.Observe(2, 14)
	s := b.Series()
	if s.Name != "revenue" {
		t.Errorf("name = %q", s.Name)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].X != 1 || s.Points[1].X != 2 {
		t.Error("points not sorted by X")
	}
	if s.Points[1].Y != 12 || s.Points[1].Count != 2 {
		t.Errorf("aggregation wrong: %+v", s.Points[1])
	}
}

func TestSeriesBuilderMerge(t *testing.T) {
	a := NewSeriesBuilder("m")
	b := NewSeriesBuilder("m")
	a.Observe(1, 2)
	b.Observe(1, 4)
	b.Observe(3, 9)
	a.Merge(b)
	s := a.Series()
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Y != 3 || s.Points[0].Count != 2 {
		t.Errorf("merged point wrong: %+v", s.Points[0])
	}
	if s.Points[1].Y != 9 || s.Points[1].Count != 1 {
		t.Errorf("copied point wrong: %+v", s.Points[1])
	}
}

func TestAccumulatorMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true // avoid float overflow artifacts
			}
			a.Add(x)
		}
		if a.N() == 0 {
			return true
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9 && a.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{-12, "-12"},
		{2.5, "2.5000"},
		{1e8, "1.000e+08"},
		{0.0001, "1.000e-04"},
		{0, "0"},
	}
	for _, tc := range tests {
		if got := FormatFloat(tc.in); got != tc.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
