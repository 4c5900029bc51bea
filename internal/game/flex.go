package game

import (
	"errors"
	"fmt"

	"cmabhs/internal/economics"
	"cmabhs/internal/numutil"
)

// This file implements the family-flexible game solver: the same
// three-stage Stackelberg structure, but with the cost and valuation
// families behind interfaces, so the related-work alternatives
// (piecewise-linear seller costs; Cobb–Douglas valuation — [15],
// [16], [19]–[21] in the paper) can be played and compared against
// the paper's quadratic/logarithmic choices. The closed forms only
// exist for the paper's families, so every stage here is solved
// numerically; a finite sensing-time cap (MaxTau) keeps the seller
// stage well-posed for families with linear tails.

// FlexParams describes one round's game with pluggable families.
type FlexParams struct {
	Costs     []economics.CostFunc // per-seller cost families
	Qualities []float64            // estimated qualities q̄_i ∈ (0, 1]
	Platform  economics.PlatformCost
	Valuation economics.ValuationFunc
	PJBounds  Bounds
	PBounds   Bounds
	MaxTau    float64 // must be positive: bounds the sellers' strategy space
}

// Validate checks structural and model constraints.
func (f *FlexParams) Validate() error {
	if len(f.Costs) == 0 {
		return ErrNoSellers
	}
	if len(f.Costs) != len(f.Qualities) {
		return fmt.Errorf("%w (%d costs, %d qualities)", ErrShapeMismatch, len(f.Costs), len(f.Qualities))
	}
	for i, c := range f.Costs {
		if c == nil {
			return fmt.Errorf("game: nil cost family for seller %d", i)
		}
	}
	if err := validateQualities(f.Qualities); err != nil {
		return err
	}
	if f.Valuation == nil {
		return errors.New("game: nil valuation family")
	}
	if err := f.Platform.Validate(); err != nil {
		return err
	}
	if err := f.PJBounds.Validate(); err != nil {
		return fmt.Errorf("p^J bounds: %w", err)
	}
	if err := f.PBounds.Validate(); err != nil {
		return fmt.Errorf("p bounds: %w", err)
	}
	if !(f.MaxTau > 0) {
		return errors.New("game: flex games need a positive MaxTau")
	}
	return ValidateMaxTau(f.MaxTau)
}

// SellerBestResponse maximizes Ψ_i(τ) = p·τ − C_i(τ, q̄_i) over
// τ ∈ [0, MaxTau] by grid+golden search (the family need not be
// smooth — piecewise-linear costs have kinks).
func (f *FlexParams) SellerBestResponse(price float64, i int) float64 {
	cost, q := f.Costs[i], f.Qualities[i]
	profit := func(tau float64) float64 { return price*tau - cost.Cost(tau, q) }
	tau, best := numutil.MaximizeGrid(profit, 0, f.MaxTau, 96)
	// Opting out is always available.
	if best < 0 {
		return 0
	}
	return tau
}

// totalTau returns Στ with every seller playing its best response.
func (f *FlexParams) totalTau(price float64) float64 {
	var sum numutil.KahanSum
	for i := range f.Costs {
		sum.Add(f.SellerBestResponse(price, i))
	}
	return sum.Sum()
}

func (f *FlexParams) qbar() float64 {
	var sum numutil.KahanSum
	for _, q := range f.Qualities {
		sum.Add(q)
	}
	return sum.Sum() / float64(len(f.Qualities))
}

// PlatformBestResponse maximizes the platform profit over PBounds
// with sellers best-responding.
func (f *FlexParams) PlatformBestResponse(pJ float64) float64 {
	obj := func(price float64) float64 {
		S := f.totalTau(price)
		return (pJ-price)*S - f.Platform.Cost(S)
	}
	price, _ := numutil.MaximizeGrid(obj, f.PBounds.Min, f.PBounds.Max, 96)
	return price
}

// SolveFlex runs the full backward induction numerically and returns
// the outcome under the configured families.
func SolveFlex(f *FlexParams) (*Outcome, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	qbar := f.qbar()
	consumer := func(pJ float64) float64 {
		price := f.PlatformBestResponse(pJ)
		S := f.totalTau(price)
		return f.Valuation.Value(S, qbar) - pJ*S
	}
	pJ, _ := numutil.MaximizeGrid(consumer, f.PJBounds.Min, f.PJBounds.Max, 96)
	price := f.PlatformBestResponse(pJ)

	n := len(f.Costs)
	out := &Outcome{
		PJ:            pJ,
		P:             price,
		Taus:          make([]float64, n),
		SellerProfits: make([]float64, n),
	}
	var total numutil.KahanSum
	for i := range f.Costs {
		tau := f.SellerBestResponse(price, i)
		out.Taus[i] = tau
		total.Add(tau)
		out.SellerProfits[i] = price*tau - f.Costs[i].Cost(tau, f.Qualities[i])
	}
	out.TotalTau = total.Sum()
	if out.TotalTau <= 1e-12 {
		out.NoTrade = true
		out.TotalTau = 0
		return out, nil
	}
	out.PlatformProfit = (pJ-price)*out.TotalTau - f.Platform.Cost(out.TotalTau)
	out.ConsumerProfit = f.Valuation.Value(out.TotalTau, qbar) - pJ*out.TotalTau
	return out, nil
}
