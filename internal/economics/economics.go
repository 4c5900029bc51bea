// Package economics implements the cost, valuation, and profit
// functions of the CDT model (Definitions 4 and 9–11 of the paper).
//
// The paper's concrete families are the quadratic seller cost
// C_i(τ, q̄) = (a·τ² + b·τ)·q̄ (Eq. 6), the quadratic platform
// aggregation cost C^J(τ) = θ·(Στ)² + λ·Στ (Eq. 8), and the
// logarithmic consumer valuation φ = ω·ln(1 + q̄·Στ) (Eq. 10). The
// package exposes them both as concrete parameter structs (what the
// closed-form game solver consumes) and behind small interfaces so
// the related-work alternatives (piecewise-linear cost, Cobb–Douglas
// valuation) can be plugged into the numeric solver and ablations.
package economics

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by parameter validation.
var (
	ErrBadSellerCost   = errors.New("economics: seller cost requires a in [1e-6, 1e6] and b in [0, 1e6]")
	ErrBadPlatformCost = errors.New("economics: platform cost requires theta in [1e-6, 1e6] and lambda in [0, 1e6]")
	ErrBadValuation    = errors.New("economics: valuation requires omega in (1, 1e6]")
)

// The input envelope. The closed forms of Theorems 14–16 are finite
// only for bounded economics, so every model parameter must be finite
// and at most MaxParam in magnitude, and the curvatures a_i and θ —
// which the equilibrium divides by — at least MinParam (the same floor
// the mechanism puts under the quality estimates entering the game).
// The paper's own values sit orders of magnitude inside it.
const (
	MinParam = 1e-6
	MaxParam = 1e6
)

// InEnvelope reports whether x is finite and |x| <= MaxParam (NaN and
// ±Inf are outside).
func InEnvelope(x float64) bool { return math.Abs(x) <= MaxParam }

// SellerCost holds the quadratic cost parameters (a_i, b_i) of one
// seller: C(τ, q̄) = (a·τ² + b·τ)·q̄, with a > 0 and b ≥ 0 so that the
// cost is strictly convex and increasing in τ (Def. 9).
type SellerCost struct {
	A float64 // quadratic coefficient a_i > 0
	B float64 // linear coefficient b_i >= 0
}

// Validate reports whether the parameters satisfy the model's
// convexity constraints and lie inside the input envelope.
func (c SellerCost) Validate() error {
	if !(c.A >= MinParam) || !(c.B >= 0) || !InEnvelope(c.A) || !InEnvelope(c.B) {
		return fmt.Errorf("%w (a=%v, b=%v)", ErrBadSellerCost, c.A, c.B)
	}
	return nil
}

// Cost returns C(τ, q̄) = (a·τ² + b·τ)·q̄ (Eq. 6).
func (c SellerCost) Cost(tau, qbar float64) float64 {
	return (c.A*tau*tau + c.B*tau) * qbar
}

// MarginalCost returns ∂C/∂τ = (2aτ + b)·q̄.
func (c SellerCost) MarginalCost(tau, qbar float64) float64 {
	return (2*c.A*tau + c.B) * qbar
}

// PlatformCost holds the quadratic aggregation-cost parameters
// (θ, λ): C^J(τ) = θ·S² + λ·S with S = Στ_i (Eq. 8), θ > 0, λ ≥ 0.
type PlatformCost struct {
	Theta  float64 // quadratic coefficient θ > 0
	Lambda float64 // linear coefficient λ >= 0
}

// Validate reports whether the parameters satisfy the model and lie
// inside the input envelope.
func (c PlatformCost) Validate() error {
	if !(c.Theta >= MinParam) || !(c.Lambda >= 0) || !InEnvelope(c.Theta) || !InEnvelope(c.Lambda) {
		return fmt.Errorf("%w (theta=%v, lambda=%v)", ErrBadPlatformCost, c.Theta, c.Lambda)
	}
	return nil
}

// Cost returns C^J(S) = θ·S² + λ·S for total sensing time S.
func (c PlatformCost) Cost(totalTau float64) float64 {
	return c.Theta*totalTau*totalTau + c.Lambda*totalTau
}

// Valuation holds the consumer's log-valuation parameter ω:
// φ(S, q̄) = ω·ln(1 + q̄·S) (Eq. 10), ω > 1.
type Valuation struct {
	Omega float64 // system parameter ω > 1
}

// Validate reports whether the parameter satisfies the model and lies
// inside the input envelope.
func (v Valuation) Validate() error {
	if !(v.Omega > 1) || !InEnvelope(v.Omega) {
		return fmt.Errorf("%w (omega=%v)", ErrBadValuation, v.Omega)
	}
	return nil
}

// Value returns φ(S, q̄) = ω·ln(1 + q̄·S) for total sensing time S and
// mean selected quality q̄.
func (v Valuation) Value(totalTau, qbar float64) float64 {
	return v.Omega * math.Log(1+qbar*totalTau)
}

// MarginalValue returns ∂φ/∂S = ω·q̄ / (1 + q̄·S).
func (v Valuation) MarginalValue(totalTau, qbar float64) float64 {
	return v.Omega * qbar / (1 + qbar*totalTau)
}

// SellerProfit returns Ψ_i = p·τ − C_i(τ, q̄_i) (Eq. 5) for a selected
// seller. Unselected sellers have zero profit by Eq. 5 (χ_i = 0).
func SellerProfit(p, tau, qbar float64, c SellerCost) float64 {
	return p*tau - c.Cost(tau, qbar)
}

// PlatformProfit returns Ω = p^J·S − p·S − C^J(S) (Eq. 7) where S is
// the total sensing time of the selected sellers.
func PlatformProfit(pJ, p, totalTau float64, c PlatformCost) float64 {
	return (pJ-p)*totalTau - c.Cost(totalTau)
}

// ConsumerProfit returns Φ = φ(S, q̄) − p^J·S (Eq. 9).
func ConsumerProfit(pJ, totalTau, qbar float64, v Valuation) float64 {
	return v.Value(totalTau, qbar) - pJ*totalTau
}
