package economics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSellerCostValidate(t *testing.T) {
	valid := []SellerCost{{A: 0.1, B: 0}, {A: 1, B: 2}, {A: MinParam, B: MaxParam}, {A: MaxParam, B: 0}}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v should be valid: %v", c, err)
		}
	}
	invalid := []SellerCost{{A: 0, B: 1}, {A: -1, B: 1}, {A: 1, B: -0.1}, {A: math.NaN(), B: 0},
		{A: 1e-300, B: 0}, {A: 1e308, B: 0}, {A: 1, B: 1e308}, {A: 1, B: math.Inf(1)}, {A: 1, B: math.NaN()}}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be invalid", c)
		}
	}
}

func TestSellerCostValues(t *testing.T) {
	c := SellerCost{A: 0.3, B: 0.5}
	// (0.3·4 + 0.5·2)·0.8 = (1.2+1.0)·0.8 = 1.76
	if got := c.Cost(2, 0.8); math.Abs(got-1.76) > 1e-12 {
		t.Errorf("Cost = %v", got)
	}
	// (2·0.3·2 + 0.5)·0.8 = 1.7·0.8 = 1.36
	if got := c.MarginalCost(2, 0.8); math.Abs(got-1.36) > 1e-12 {
		t.Errorf("MarginalCost = %v", got)
	}
	if c.Cost(0, 0.8) != 0 {
		t.Error("zero time should cost zero")
	}
}

// TestSellerCostConvexity checks strict convexity and monotonicity in
// τ for random parameters — the assumptions Theorem 14 relies on.
func TestSellerCostConvexity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		c := SellerCost{A: 0.05 + rng.Float64(), B: rng.Float64()}
		q := 0.05 + 0.95*rng.Float64()
		t1 := rng.Float64() * 10
		t2 := t1 + 0.1 + rng.Float64()*10
		mid := (t1 + t2) / 2
		// Midpoint strictly below the chord: strict convexity.
		chord := (c.Cost(t1, q) + c.Cost(t2, q)) / 2
		if !(c.Cost(mid, q) < chord) {
			t.Fatalf("not strictly convex: %+v q=%v t1=%v t2=%v", c, q, t1, t2)
		}
		// Monotone increasing.
		if !(c.Cost(t2, q) > c.Cost(t1, q)) {
			t.Fatalf("not increasing: %+v", c)
		}
		// Marginal cost is the derivative: finite-difference check.
		h := 1e-6
		fd := (c.Cost(mid+h, q) - c.Cost(mid-h, q)) / (2 * h)
		if math.Abs(fd-c.MarginalCost(mid, q)) > 1e-4 {
			t.Fatalf("marginal cost mismatch: fd=%v analytic=%v", fd, c.MarginalCost(mid, q))
		}
	}
}

func TestPlatformCostValidateAndValues(t *testing.T) {
	if err := (PlatformCost{Theta: 0.1, Lambda: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (PlatformCost{Theta: MinParam, Lambda: MaxParam}).Validate(); err != nil {
		t.Errorf("envelope limits rejected: %v", err)
	}
	for _, c := range []PlatformCost{{Theta: 0, Lambda: 1}, {Theta: -1, Lambda: 0}, {Theta: 1, Lambda: -1},
		{Theta: 1e-300, Lambda: 1}, {Theta: 1e308, Lambda: 1}, {Theta: 1, Lambda: 1e308}, {Theta: 1, Lambda: math.NaN()}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be invalid", c)
		}
	}
	c := PlatformCost{Theta: 0.1, Lambda: 1}
	// 0.1·25 + 1·5 = 7.5
	if got := c.Cost(5); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("Cost = %v", got)
	}
}

func TestValuationValidateAndValues(t *testing.T) {
	if err := (Valuation{Omega: 1000}).Validate(); err != nil {
		t.Errorf("valid omega rejected: %v", err)
	}
	if err := (Valuation{Omega: MaxParam}).Validate(); err != nil {
		t.Errorf("envelope limit rejected: %v", err)
	}
	for _, v := range []Valuation{{Omega: 1}, {Omega: 0}, {Omega: -5}, {Omega: math.NaN()}, {Omega: 1e308}, {Omega: math.Inf(1)}} {
		if err := v.Validate(); err == nil {
			t.Errorf("%+v should be invalid", v)
		}
	}
	v := Valuation{Omega: 100}
	if got := v.Value(0, 0.5); got != 0 {
		t.Errorf("zero time should have zero value, got %v", got)
	}
	want := 100 * math.Log(1+0.5*4)
	if got := v.Value(4, 0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value = %v, want %v", got, want)
	}
}

// TestValuationConcavity checks strict concavity and diminishing
// marginal returns — the assumptions Theorem 16 relies on.
func TestValuationConcavity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		v := Valuation{Omega: 1.5 + rng.Float64()*2000}
		q := 0.05 + 0.95*rng.Float64()
		t1 := rng.Float64() * 50
		t2 := t1 + 0.1 + rng.Float64()*50
		mid := (t1 + t2) / 2
		chord := (v.Value(t1, q) + v.Value(t2, q)) / 2
		if !(v.Value(mid, q) > chord) {
			t.Fatalf("not strictly concave: ω=%v q=%v", v.Omega, q)
		}
		if !(v.MarginalValue(t2, q) < v.MarginalValue(t1, q)) {
			t.Fatal("marginal value should diminish")
		}
		h := 1e-6
		fd := (v.Value(mid+h, q) - v.Value(mid-h, q)) / (2 * h)
		if math.Abs(fd-v.MarginalValue(mid, q)) > 1e-5 {
			t.Fatalf("marginal value mismatch: fd=%v analytic=%v", fd, v.MarginalValue(mid, q))
		}
	}
}

func TestProfitFunctions(t *testing.T) {
	sc := SellerCost{A: 0.2, B: 0.3}
	// Ψ = p·τ − (aτ²+bτ)q̄ = 2·3 − (0.2·9+0.3·3)·0.5 = 6 − 1.35 = 4.65
	if got := SellerProfit(2, 3, 0.5, sc); math.Abs(got-4.65) > 1e-12 {
		t.Errorf("SellerProfit = %v", got)
	}
	pc := PlatformCost{Theta: 0.1, Lambda: 1}
	// Ω = (5−2)·4 − (0.1·16 + 4) = 12 − 5.6 = 6.4
	if got := PlatformProfit(5, 2, 4, pc); math.Abs(got-6.4) > 1e-12 {
		t.Errorf("PlatformProfit = %v", got)
	}
	v := Valuation{Omega: 100}
	want := 100*math.Log(1+0.5*4) - 5*4
	if got := ConsumerProfit(5, 4, 0.5, v); math.Abs(got-want) > 1e-12 {
		t.Errorf("ConsumerProfit = %v, want %v", got, want)
	}
}

// TestProfitZeroTime: with zero sensing time every party's profit is
// zero — the no-trade baseline all participation constraints compare
// against.
func TestProfitZeroTime(t *testing.T) {
	f := func(p, pJ, q float64) bool {
		p = math.Abs(p)
		pJ = math.Abs(pJ)
		q = math.Mod(math.Abs(q), 1)
		sc := SellerCost{A: 0.3, B: 0.2}
		pc := PlatformCost{Theta: 0.1, Lambda: 1}
		v := Valuation{Omega: 1000}
		return SellerProfit(p, 0, q, sc) == 0 &&
			PlatformProfit(pJ, p, 0, pc) == 0 &&
			ConsumerProfit(pJ, 0, q, v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPiecewiseLinearCost(t *testing.T) {
	c := PiecewiseLinearCost{Rate: 2, Knee: 3, Steepen: 4}
	if got := c.Cost(2, 1); got != 4 {
		t.Errorf("pre-knee cost = %v", got)
	}
	// 2·3 + 2·4·(5−3) = 6 + 16 = 22
	if got := c.Cost(5, 1); got != 22 {
		t.Errorf("post-knee cost = %v", got)
	}
	// Continuity at the knee.
	if math.Abs(c.Cost(3-1e-9, 1)-c.Cost(3+1e-9, 1)) > 1e-6 {
		t.Error("cost discontinuous at knee")
	}
	if c.MarginalCost(2, 1) != 2 || c.MarginalCost(4, 1) != 8 {
		t.Error("marginal slopes wrong")
	}
	// Quality scales the whole thing.
	if c.Cost(5, 0.5) != 11 {
		t.Errorf("quality scaling wrong: %v", c.Cost(5, 0.5))
	}
}

func TestCobbDouglasValuation(t *testing.T) {
	v := CobbDouglasValuation{Scale: 10, ElasTau: 0.5, ElasQ: 0.5}
	if v.Value(0, 0.5) != 0 || v.Value(4, 0) != 0 {
		t.Error("degenerate inputs should value 0")
	}
	want := 10 * math.Sqrt(4) * math.Sqrt(0.25)
	if got := v.Value(4, 0.25); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value = %v, want %v", got, want)
	}
	// Diminishing marginal value.
	if !(v.MarginalValue(8, 0.25) < v.MarginalValue(4, 0.25)) {
		t.Error("marginal value should diminish")
	}
	// Finite-difference agreement.
	h := 1e-6
	fd := (v.Value(4+h, 0.25) - v.Value(4-h, 0.25)) / (2 * h)
	if math.Abs(fd-v.MarginalValue(4, 0.25)) > 1e-5 {
		t.Errorf("marginal mismatch: fd=%v analytic=%v", fd, v.MarginalValue(4, 0.25))
	}
}

func BenchmarkSellerProfit(b *testing.B) {
	c := SellerCost{A: 0.3, B: 0.5}
	for i := 0; i < b.N; i++ {
		SellerProfit(2.5, 1.4, 0.7, c)
	}
}
