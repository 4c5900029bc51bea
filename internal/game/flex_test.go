package game

import (
	"math"
	"testing"

	"cmabhs/internal/economics"
	"cmabhs/internal/numutil"
	"cmabhs/internal/rng"
)

// flexOf lifts the paper's quadratic/log game into the flexible
// representation, so SolveFlex can be checked against Solve.
func flexOf(p *Params, maxTau float64) *FlexParams {
	costs := make([]economics.CostFunc, len(p.Sellers))
	for i, c := range p.Sellers {
		costs[i] = c
	}
	return &FlexParams{
		Costs:     costs,
		Qualities: append([]float64(nil), p.Qualities...),
		Platform:  p.Platform,
		Valuation: p.Consumer,
		PJBounds:  p.PJBounds,
		PBounds:   p.PBounds,
		MaxTau:    maxTau,
	}
}

func TestFlexValidate(t *testing.T) {
	good := flexOf(defaultParams(3), 50)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid flex rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*FlexParams)
	}{
		{"no sellers", func(f *FlexParams) { f.Costs = nil; f.Qualities = nil }},
		{"length mismatch", func(f *FlexParams) { f.Qualities = f.Qualities[:1] }},
		{"nil cost", func(f *FlexParams) { f.Costs[0] = nil }},
		{"bad quality", func(f *FlexParams) { f.Qualities[0] = 0 }},
		{"nil valuation", func(f *FlexParams) { f.Valuation = nil }},
		{"bad platform", func(f *FlexParams) { f.Platform.Theta = 0 }},
		{"bad bounds", func(f *FlexParams) { f.PJBounds = Bounds{Min: 2, Max: 1} }},
		{"no cap", func(f *FlexParams) { f.MaxTau = 0 }},
	}
	for _, tc := range cases {
		f := flexOf(defaultParams(3), 50)
		tc.mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestFlexMatchesClosedFormOnPaperFamilies: with the paper's
// quadratic/log families and a non-binding cap, SolveFlex lands on
// (approximately) the closed-form equilibrium.
func TestFlexMatchesClosedFormOnPaperFamilies(t *testing.T) {
	p := interiorParams(6)
	closed, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if closed.TauClamped || closed.NoTrade {
		t.Fatal("interior instance expected")
	}
	flex, err := SolveFlex(flexOf(p, 4*closed.TotalTau))
	if err != nil {
		t.Fatal(err)
	}
	// Grid solvers are approximate; profits must agree tightly, the
	// prices loosely.
	if !numutil.AlmostEqual(flex.ConsumerProfit, closed.ConsumerProfit, 2e-3) {
		t.Errorf("flex Φ=%v vs closed %v", flex.ConsumerProfit, closed.ConsumerProfit)
	}
	if math.Abs(flex.PJ-closed.PJ) > 0.05*(1+closed.PJ) {
		t.Errorf("flex p^J=%v vs closed %v", flex.PJ, closed.PJ)
	}
}

// TestFlexPiecewiseLinearBangBang: with linear cost below the price
// slope, a seller's best response jumps to the cap; above it, to
// zero — the bang-bang structure quadratic costs smooth out.
func TestFlexPiecewiseLinearBangBang(t *testing.T) {
	f := &FlexParams{
		Costs:     []economics.CostFunc{economics.PiecewiseLinearCost{Rate: 2, Knee: 1, Steepen: 4}},
		Qualities: []float64{1},
		Platform:  economics.PlatformCost{Theta: 0.1, Lambda: 1},
		Valuation: economics.Valuation{Omega: 100},
		PJBounds:  Bounds{Max: 50},
		PBounds:   Bounds{Max: 20},
		MaxTau:    3,
	}
	// Price below the base slope (2): opt out.
	if tau := f.SellerBestResponse(1.5, 0); tau != 0 {
		t.Errorf("price below marginal cost: τ=%v, want 0", tau)
	}
	// Price between slopes (2, 8): sit at the knee.
	if tau := f.SellerBestResponse(5, 0); math.Abs(tau-1) > 0.02 {
		t.Errorf("price between slopes: τ=%v, want ≈1 (knee)", tau)
	}
	// Price above the steep slope: saturate at the cap.
	if tau := f.SellerBestResponse(10, 0); math.Abs(tau-3) > 0.02 {
		t.Errorf("price above steep slope: τ=%v, want cap 3", tau)
	}
}

// TestFlexCobbDouglas: the Cobb–Douglas valuation produces a
// profitable trade and an SE-like outcome (no sampled unilateral
// deviation profits).
func TestFlexCobbDouglas(t *testing.T) {
	src := rng.New(71)
	f := &FlexParams{
		Platform:  economics.PlatformCost{Theta: 0.1, Lambda: 1},
		Valuation: economics.CobbDouglasValuation{Scale: 400, ElasTau: 0.5, ElasQ: 0.5},
		PJBounds:  Bounds{Max: 100},
		PBounds:   Bounds{Max: 5},
		MaxTau:    20,
	}
	for i := 0; i < 6; i++ {
		f.Costs = append(f.Costs, economics.SellerCost{A: src.Uniform(0.1, 0.5), B: src.Uniform(0.1, 1)})
		f.Qualities = append(f.Qualities, src.Uniform(0.2, 1))
	}
	out, err := SolveFlex(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.NoTrade || out.ConsumerProfit <= 0 {
		t.Fatalf("Cobb–Douglas market should trade profitably: %+v", out)
	}
	// Seller deviations at the equilibrium prices never profit.
	for trial := 0; trial < 200; trial++ {
		i := src.Intn(len(f.Costs))
		dev := src.Uniform(0, f.MaxTau)
		devProfit := out.P*dev - f.Costs[i].Cost(dev, f.Qualities[i])
		if devProfit > out.SellerProfits[i]+1e-6 {
			t.Fatalf("seller %d profits from τ=%v (%v > %v)", i, dev, devProfit, out.SellerProfits[i])
		}
	}
	// Consumer deviations (with reactions) never profit materially.
	qbar := f.qbar()
	for trial := 0; trial < 40; trial++ {
		pj := src.Uniform(f.PJBounds.Min, f.PJBounds.Max)
		price := f.PlatformBestResponse(pj)
		S := f.totalTau(price)
		if phi := f.Valuation.Value(S, qbar) - pj*S; phi > out.ConsumerProfit*(1+1e-3)+1e-6 {
			t.Fatalf("consumer profits from p^J=%v (%v > %v)", pj, phi, out.ConsumerProfit)
		}
	}
}

// TestFlexNoTrade: an absurdly expensive market yields no trade.
func TestFlexNoTrade(t *testing.T) {
	f := &FlexParams{
		Costs:     []economics.CostFunc{economics.PiecewiseLinearCost{Rate: 1e6, Knee: 1, Steepen: 1}},
		Qualities: []float64{0.5},
		Platform:  economics.PlatformCost{Theta: 0.1, Lambda: 1},
		Valuation: economics.Valuation{Omega: 2},
		PJBounds:  Bounds{Max: 3},
		PBounds:   Bounds{Max: 3},
		MaxTau:    5,
	}
	out, err := SolveFlex(f)
	if err != nil {
		t.Fatal(err)
	}
	if !out.NoTrade {
		t.Fatalf("expected no-trade, got %+v", out)
	}
}

func BenchmarkSolveFlexK10(b *testing.B) {
	p := defaultParams(10)
	f := flexOf(p, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveFlex(f); err != nil {
			b.Fatal(err)
		}
	}
}
