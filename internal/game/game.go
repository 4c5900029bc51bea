// Package game implements the three-stage Hierarchical Stackelberg
// (HS) game of the CMAB-HS mechanism: the consumer (first-tier
// leader) posts a unit data-service price p^J, the platform
// (second-tier leader) posts a unit data-collection price p, and each
// selected seller (follower) chooses a sensing time τ_i. Backward
// induction over the three stages (Theorems 14–16 of the paper)
// yields the unique Stackelberg Equilibrium.
//
// Closed forms used (with the selected set's aggregate coefficients
// A = Σ 1/(2·q̄_i·a_i) and B = Σ b_i/(2·a_i), so that Στ_i = p·A − B):
//
//	Stage 3:  τ_i* = (p − q̄_i·b_i) / (2·q̄_i·a_i)            (Eq. 20)
//	Stage 2:  p*   = (p^J·A + B + 2θAB − λA) / (2A(1+θA))    (Eq. 21, sign-corrected)
//	Stage 1:  p^J* = (3·q̄·Λ + √Δ − 2) / (4·q̄·Θ)             (Eq. 22)
//	          Θ = A/(2(1+θA)),  Λ = (λA + B)/(2(1+θA)),
//	          Δ = (q̄Λ + 2)² − 8·q̄·(Λ − Θ·ω·q̄)
//
// The paper's Eq. (21) prints the numerator constant as −B; deriving
// ∂Ω/∂p = 0 from Eq. (7) gives +B, and the tests in this package
// confirm the corrected form against a numeric argmax of the exact
// profit functions (see DESIGN.md §1).
package game

import (
	"errors"
	"fmt"
	"math"

	"cmabhs/internal/economics"
	"cmabhs/internal/numutil"
)

// Errors returned by Params.Validate.
var (
	ErrNoSellers     = errors.New("game: no selected sellers")
	ErrShapeMismatch = errors.New("game: sellers and qualities length mismatch")
	ErrBadQuality    = errors.New("game: qualities must lie in [1e-6, 1]")
	ErrBadBounds     = errors.New("game: price bounds must satisfy 0 <= min <= max <= 1e6")
	ErrBadMaxTau     = errors.New("game: sensing-time cap T must lie in [-1e6, 1e6]")
)

// Bounds is a closed price interval [Min, Max].
type Bounds struct {
	Min, Max float64
}

// Validate reports whether the bounds are a valid interval inside the
// input envelope.
func (b Bounds) Validate() error {
	if !(b.Min >= 0) || !(b.Max >= b.Min) || !economics.InEnvelope(b.Max) {
		return fmt.Errorf("%w (got [%v, %v])", ErrBadBounds, b.Min, b.Max)
	}
	return nil
}

// Clamp restricts x to the interval.
func (b Bounds) Clamp(x float64) float64 { return numutil.Clamp(x, b.Min, b.Max) }

// Contains reports whether x lies in the interval.
func (b Bounds) Contains(x float64) bool { return x >= b.Min && x <= b.Max }

// Params describes one round's game: the selected sellers' cost
// parameters and current estimated qualities, the platform and
// consumer parameters, and the strategy spaces.
type Params struct {
	Sellers   []economics.SellerCost // cost parameters (a_i, b_i) of the selected set
	Qualities []float64              // estimated qualities q̄_i ∈ (0, 1]
	Platform  economics.PlatformCost
	Consumer  economics.Valuation
	PJBounds  Bounds  // consumer's price space [p^J_min, p^J_max]
	PBounds   Bounds  // platform's price space [p_min, p_max]
	MaxTau    float64 // round duration T; <= 0 means unbounded sensing time
}

// ValidateMaxTau checks a sensing-time cap T against the input
// envelope; T <= 0 means uncapped.
func ValidateMaxTau(t float64) error {
	if !economics.InEnvelope(t) {
		return fmt.Errorf("%w (got %v)", ErrBadMaxTau, t)
	}
	return nil
}

// Validate checks structural and model constraints.
func (p *Params) Validate() error {
	if len(p.Sellers) == 0 {
		return ErrNoSellers
	}
	if len(p.Sellers) != len(p.Qualities) {
		return fmt.Errorf("%w (%d sellers, %d qualities)", ErrShapeMismatch, len(p.Sellers), len(p.Qualities))
	}
	for i, c := range p.Sellers {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("seller %d: %w", i, err)
		}
	}
	if err := validateQualities(p.Qualities); err != nil {
		return err
	}
	if err := p.Platform.Validate(); err != nil {
		return err
	}
	if err := p.Consumer.Validate(); err != nil {
		return err
	}
	if err := p.PJBounds.Validate(); err != nil {
		return fmt.Errorf("p^J bounds: %w", err)
	}
	if err := p.PBounds.Validate(); err != nil {
		return fmt.Errorf("p bounds: %w", err)
	}
	return ValidateMaxTau(p.MaxTau)
}

// validateQualities checks every estimated quality lies in
// [economics.MinParam, 1].
func validateQualities(qs []float64) error {
	for i, q := range qs {
		if !(q >= economics.MinParam) || q > 1 {
			return fmt.Errorf("%w (seller %d has q̄=%v)", ErrBadQuality, i, q)
		}
	}
	return nil
}

// Coefficients holds the aggregate quantities the closed forms are
// written in.
type Coefficients struct {
	A    float64 // Σ 1/(2·q̄_i·a_i)
	B    float64 // Σ b_i/(2·a_i)
	QBar float64 // mean estimated quality of the selected set
}

// Coeffs computes the aggregate coefficients of the selected set.
func (p *Params) Coeffs() Coefficients {
	var a, b, q numutil.KahanSum
	for i, c := range p.Sellers {
		a.Add(1 / (2 * p.Qualities[i] * c.A))
		b.Add(c.B / (2 * c.A))
		q.Add(p.Qualities[i])
	}
	return Coefficients{
		A:    a.Sum(),
		B:    b.Sum(),
		QBar: q.Sum() / float64(len(p.Sellers)),
	}
}

// Outcome is the solved incentive strategy ⟨p^J*, p*, τ*⟩ together
// with the resulting profits.
type Outcome struct {
	PJ       float64   // consumer's unit data-service price p^J*
	P        float64   // platform's unit data-collection price p*
	Taus     []float64 // sensing time τ_i* per selected seller
	TotalTau float64   // Σ τ_i*

	ConsumerProfit float64   // Φ (Eq. 9)
	PlatformProfit float64   // Ω (Eq. 7)
	SellerProfits  []float64 // Ψ_i (Eq. 5)

	NoTrade    bool // parameters admit no profitable trade this round
	PJClamped  bool // p^J* hit a bound of PJBounds
	PClamped   bool // p* hit a bound of PBounds
	TauClamped bool // some τ_i* hit 0 or MaxTau (closed form is then approximate)
}

// SellerBestResponse returns seller i's optimal sensing time for a
// posted collection price p (Stage 3, Theorem 14), clamped to
// [0, MaxTau]. The unconstrained optimum is (p − q̄b)/(2q̄a); it is
// negative when the price does not cover the marginal cost at τ=0, in
// which case the seller contributes nothing.
func SellerBestResponse(p float64, cost economics.SellerCost, qbar, maxTau float64) (tau float64, clamped bool) {
	tau = (p - qbar*cost.B) / (2 * qbar * cost.A)
	if tau < 0 {
		return 0, true
	}
	if maxTau > 0 && tau > maxTau {
		return maxTau, true
	}
	return tau, false
}

// PlatformBestResponse returns the platform's optimal collection
// price for a posted service price pJ (Stage 2, corrected Eq. 21),
// clamped to PBounds.
func (p *Params) PlatformBestResponse(pJ float64, co Coefficients) (price float64, clamped bool) {
	theta, lambda := p.Platform.Theta, p.Platform.Lambda
	raw := (pJ*co.A + co.B + 2*theta*co.A*co.B - lambda*co.A) / (2 * co.A * (1 + theta*co.A))
	price = p.PBounds.Clamp(raw)
	return price, price != raw
}

// ConsumerBestPJ returns the consumer's optimal service price
// (Stage 1, Eq. 22), clamped to PJBounds. It also reports whether the
// unclamped optimum implies a positive total sensing time; if not,
// the round is no-trade at any admissible price.
func (p *Params) ConsumerBestPJ(co Coefficients) (pJ float64, clamped, trade bool) {
	theta := p.Platform.Theta
	bigTheta := co.A / (2 * (1 + theta*co.A))
	bigLambda := (p.Platform.Lambda*co.A + co.B) / (2 * (1 + theta*co.A))
	q := co.QBar
	delta := (q*bigLambda+2)*(q*bigLambda+2) - 8*q*(bigLambda-bigTheta*p.Consumer.Omega*q)
	if delta < 0 {
		// Cannot happen for valid params (Δ > (q̄Λ−2)² + 8Θωq̄² > 0),
		// but guard against pathological float inputs.
		return p.PJBounds.Min, true, false
	}
	raw := (3*q*bigLambda + math.Sqrt(delta) - 2) / (4 * q * bigTheta)
	pJ = p.PJBounds.Clamp(raw)
	// Trade requires S = Θ·p^J − Λ > 0 at the admissible price.
	trade = bigTheta*pJ-bigLambda > 1e-15
	return pJ, pJ != raw, trade
}

// reset clears o for an n-seller round, reusing the capacity of its
// slices so steady-state callers allocate nothing.
func (o *Outcome) reset(n int) {
	taus, profits := o.Taus, o.SellerProfits
	if cap(taus) < n {
		taus = make([]float64, n)
	}
	if cap(profits) < n {
		profits = make([]float64, n)
	}
	*o = Outcome{Taus: taus[:n], SellerProfits: profits[:n]}
	for i := 0; i < n; i++ {
		o.Taus[i] = 0
		o.SellerProfits[i] = 0
	}
}

// Solve runs the backward induction and returns the full equilibrium
// outcome. It returns an error only for invalid parameters; economic
// degeneracy (no profitable trade) is reported via Outcome.NoTrade.
func Solve(p *Params) (*Outcome, error) {
	return p.SolveInto(&Outcome{})
}

// SolveInto is Solve writing the equilibrium into out (reusing its
// slice capacity) instead of allocating a fresh Outcome. It returns
// out for chaining.
func (p *Params) SolveInto(out *Outcome) (*Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	co := p.Coeffs()
	pJ, pjClamped, trade := p.ConsumerBestPJ(co)
	if !trade {
		out.reset(len(p.Sellers))
		out.PJ = pJ
		out.P = p.PBounds.Min
		out.NoTrade = true
		out.PJClamped = pjClamped
		return out, nil
	}
	price, pClamped := p.PlatformBestResponse(pJ, co)
	p.EvaluateInto(out, pJ, price, nil)
	out.PJClamped = pjClamped
	out.PClamped = pClamped
	return out, nil
}

// Evaluate computes the outcome for an arbitrary strategy profile.
// If taus is nil, sellers play their Stage-3 best responses to price
// p; otherwise the given sensing times are used verbatim (this is how
// the Fig. 14 deviation sweeps and the SE checks probe the game).
func (prm *Params) Evaluate(pJ, p float64, taus []float64) *Outcome {
	return prm.EvaluateInto(&Outcome{}, pJ, p, taus)
}

// EvaluateInto is Evaluate writing into out (reusing its slice
// capacity) instead of allocating a fresh Outcome. taus must not
// alias out.Taus. It returns out for chaining.
func (prm *Params) EvaluateInto(out *Outcome, pJ, p float64, taus []float64) *Outcome {
	n := len(prm.Sellers)
	out.reset(n)
	out.PJ = pJ
	out.P = p
	if taus == nil {
		for i, c := range prm.Sellers {
			tau, clamped := SellerBestResponse(p, c, prm.Qualities[i], prm.MaxTau)
			out.Taus[i] = tau
			out.TauClamped = out.TauClamped || clamped
		}
	} else {
		copy(out.Taus, taus)
	}
	var total numutil.KahanSum
	for _, tau := range out.Taus {
		total.Add(tau)
	}
	out.TotalTau = total.Sum()
	var qsum numutil.KahanSum
	for _, q := range prm.Qualities {
		qsum.Add(q)
	}
	qbar := qsum.Sum() / float64(n)
	for i, c := range prm.Sellers {
		out.SellerProfits[i] = economics.SellerProfit(p, out.Taus[i], prm.Qualities[i], c)
	}
	out.PlatformProfit = economics.PlatformProfit(pJ, p, out.TotalTau, prm.Platform)
	out.ConsumerProfit = economics.ConsumerProfit(pJ, out.TotalTau, qbar, prm.Consumer)
	return out
}

// TotalReward returns the consumer's total payment p^J·Στ for an
// outcome (what the ledger transfers from consumer to platform).
func (o *Outcome) TotalReward() float64 { return o.PJ * o.TotalTau }

// SellerReward returns the payment p·τ_i owed to seller i.
func (o *Outcome) SellerReward(i int) float64 { return o.P * o.Taus[i] }
