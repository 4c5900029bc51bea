package game

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"cmabhs/internal/economics"
)

// finiteOutcome reports the first non-finite number in an outcome, or
// "" when every price, sensing time and profit is finite.
func finiteOutcome(o *Outcome) string {
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	switch {
	case bad(o.PJ):
		return "PJ"
	case bad(o.P):
		return "P"
	case bad(o.TotalTau):
		return "TotalTau"
	case bad(o.ConsumerProfit):
		return "ConsumerProfit"
	case bad(o.PlatformProfit):
		return "PlatformProfit"
	}
	for i := range o.Taus {
		if bad(o.Taus[i]) || bad(o.SellerProfits[i]) {
			return "seller"
		}
	}
	return ""
}

// TestEnvelopeCornersFinite solves the game at every corner of the
// input envelope — a, b, θ, λ, ω, the p^J cap, the p cap and T each at
// their extremes, q̄ ∈ {MinParam, 1}, K ∈ {1, 2, 300} — with the
// closed-form and exact solvers (and the numeric one at K ≤ 2), and
// checks every outcome is finite. These are the inputs Validate lets
// through that sit closest to overflow.
func TestEnvelopeCornersFinite(t *testing.T) {
	lo, hi := economics.MinParam, economics.MaxParam
	corners := [][2]float64{
		{lo, hi},                   // a
		{0, hi},                    // b
		{lo, hi},                   // θ
		{0, hi},                    // λ
		{math.Nextafter(1, 2), hi}, // ω
		{0, hi},                    // p^J cap
		{0, hi},                    // p cap
		{0, hi},                    // T
		{lo, 1},                    // q̄
	}
	type solver struct {
		name  string
		solve func(*Params) (*Outcome, error)
	}
	var solves atomic.Int64
	t.Cleanup(func() {
		if n := solves.Load(); !t.Failed() && n != 4096 {
			t.Errorf("%d solves, want 4096", n)
		}
	})
	for _, k := range []int{1, 2, 300} {
		solvers := []solver{{"closed-form", Solve}, {"exact", SolveExact}}
		if k <= 2 {
			solvers = append(solvers, solver{"numeric", NumericSolve})
		}
		for _, s := range solvers {
			t.Run(fmt.Sprintf("K=%d/%s", k, s.name), func(t *testing.T) {
				t.Parallel()
				for mask := 0; mask < 1<<len(corners); mask++ {
					v := make([]float64, len(corners))
					for i, c := range corners {
						v[i] = c[mask>>i&1]
					}
					p := &Params{
						Platform: economics.PlatformCost{Theta: v[2], Lambda: v[3]},
						Consumer: economics.Valuation{Omega: v[4]},
						PJBounds: Bounds{Max: v[5]},
						PBounds:  Bounds{Max: v[6]},
						MaxTau:   v[7],
					}
					for i := 0; i < k; i++ {
						p.Sellers = append(p.Sellers, economics.SellerCost{A: v[0], B: v[1]})
						p.Qualities = append(p.Qualities, v[8])
					}
					out, err := s.solve(p)
					if err != nil {
						t.Fatalf("corner %v: %v", v, err)
					}
					if f := finiteOutcome(out); f != "" {
						t.Fatalf("corner %v: %s not finite: %+v", v, f, out)
					}
					solves.Add(1)
				}
			})
		}
	}
}

// TestEnvelopeRefusesOutside checks the game-level envelope edges one
// step past their limit are refused with the matching sentinel, that a
// bad economics parameter surfaces its own sentinel through Validate,
// and that the limits themselves are accepted.
func TestEnvelopeRefusesOutside(t *testing.T) {
	lo, hi := economics.MinParam, economics.MaxParam
	over := math.Nextafter(hi, math.Inf(1))
	for _, tc := range []struct {
		name   string
		mutate func(*Params)
		want   error
	}{
		{"a below", func(p *Params) { p.Sellers[0].A = math.Nextafter(lo, 0) }, economics.ErrBadSellerCost},
		{"θ +Inf", func(p *Params) { p.Platform.Theta = math.Inf(1) }, economics.ErrBadPlatformCost},
		{"ω above", func(p *Params) { p.Consumer.Omega = over }, economics.ErrBadValuation},
		{"p^J cap above", func(p *Params) { p.PJBounds.Max = over }, ErrBadBounds},
		{"p cap NaN", func(p *Params) { p.PBounds.Max = math.NaN() }, ErrBadBounds},
		{"p floor NaN", func(p *Params) { p.PBounds.Min = math.NaN() }, ErrBadBounds},
		{"T above", func(p *Params) { p.MaxTau = over }, ErrBadMaxTau},
		{"T -Inf", func(p *Params) { p.MaxTau = math.Inf(-1) }, ErrBadMaxTau},
		{"T NaN", func(p *Params) { p.MaxTau = math.NaN() }, ErrBadMaxTau},
		{"q̄ below", func(p *Params) { p.Qualities[0] = math.Nextafter(lo, 0) }, ErrBadQuality},
	} {
		p := defaultParams(3)
		tc.mutate(p)
		if err := p.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	p := defaultParams(3)
	p.Qualities[0] = lo
	p.PJBounds = Bounds{Min: hi, Max: hi}
	p.PBounds = Bounds{Max: hi}
	p.MaxTau = hi
	if err := p.Validate(); err != nil {
		t.Fatalf("envelope limits refused: %v", err)
	}
}
