// Package experiment implements the paper's evaluation harness
// (Sec. V): the Table II settings, the compared algorithms (optimal,
// CMAB-HS, ε-first, random), parallel replicated parameter sweeps,
// and one generator per figure of the paper. Each generator returns
// plain (X, series...) tables so the numbers can be eyeballed against
// the published plots; EXPERIMENTS.md records that comparison.
package experiment

import (
	"errors"
	"fmt"

	"cmabhs/internal/bandit"
	"cmabhs/internal/core"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/market"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
	"cmabhs/internal/stats"
)

// Range is a closed parameter interval used for random draws.
type Range struct {
	Lo, Hi float64
}

// Draw samples uniformly from the range.
func (r Range) Draw(src *rng.Source) float64 { return src.Uniform(r.Lo, r.Hi) }

// Settings mirrors Table II. Scale (default 1) divides every round
// count so the full suite can be smoke-run cheaply: Scale=100 turns
// the 10⁵-round default into 10³ rounds.
type Settings struct {
	M int // number of sellers (default 300)
	K int // selected sellers per round (default 10)
	L int // number of PoIs (default 10)
	N int // total rounds (default 1e5)

	Theta  float64 // platform cost θ (default 0.1)
	Lambda float64 // platform cost λ (default 1)
	Omega  float64 // consumer valuation ω (default 1000)

	ARange Range   // seller cost a_i (default [0.1, 0.5])
	BRange Range   // seller cost b_i (default [0.1, 1])
	QRange Range   // expected qualities (default [0, 1])
	SD     float64 // observation noise std-dev (default 0.1)

	PJBounds game.Bounds // default [0, 100]
	PBounds  game.Bounds // default [0, 5]

	Seed         int64 // master seed
	Replications int   // independent repetitions per sweep point (default 1)
	Scale        int   // divide all round counts by this (default 1)
	Workers      int   // parallel workers (default GOMAXPROCS)
	Solver       core.Solver
}

// Defaults returns the paper's default configuration.
func Defaults() Settings {
	return Settings{
		M: 300, K: 10, L: 10, N: 100_000,
		Theta: 0.1, Lambda: 1, Omega: 1000,
		ARange:       Range{0.1, 0.5},
		BRange:       Range{0.1, 1},
		QRange:       Range{0, 1},
		SD:           0.1,
		PJBounds:     game.Bounds{Min: 0, Max: 100},
		PBounds:      game.Bounds{Min: 0, Max: 5},
		Seed:         1,
		Replications: 1,
		Scale:        1,
	}
}

// Validate checks the settings.
func (s *Settings) Validate() error {
	switch {
	case s.M <= 0 || s.K <= 0 || s.K > s.M:
		return fmt.Errorf("experiment: invalid M=%d K=%d", s.M, s.K)
	case s.L <= 0:
		return errors.New("experiment: L must be positive")
	case s.N <= 0:
		return errors.New("experiment: N must be positive")
	case s.Replications < 0 || s.Scale < 0 || s.Workers < 0:
		return errors.New("experiment: negative replication/scale/workers")
	}
	return nil
}

func (s *Settings) scaled(n int) int {
	sc := s.Scale
	if sc <= 0 {
		sc = 1
	}
	n /= sc
	if n < 2 {
		n = 2
	}
	return n
}

func (s *Settings) reps() int {
	if s.Replications <= 0 {
		return 1
	}
	return s.Replications
}

// Instance is one concrete sampled market: seller costs, expected
// qualities, and the assembled core configuration.
type Instance struct {
	Config *core.Config
	Means  []float64
}

// NewInstance draws a market instance from the settings using the
// given stream. horizon overrides N (already scaled by the caller).
func (s *Settings) NewInstance(src *rng.Source, m, k, horizon int) *Instance {
	means := make([]float64, m)
	sellers := make([]market.SellerSpec, m)
	for i := range means {
		means[i] = s.QRange.Draw(src)
		sellers[i] = market.SellerSpec{Cost: economics.SellerCost{
			A: s.ARange.Draw(src),
			B: s.BRange.Draw(src),
		}}
	}
	model, err := quality.NewTruncGaussian(means, s.SD, src.Split(0x9a))
	if err != nil {
		panic(err) // means are drawn in [0,1]; cannot happen
	}
	cfg := &core.Config{
		Market: market.Config{
			Job:      market.Job{L: s.L, N: horizon, Description: "synthetic CDT job"},
			Sellers:  sellers,
			Platform: economics.PlatformCost{Theta: s.Theta, Lambda: s.Lambda},
			Consumer: economics.Valuation{Omega: s.Omega},
			PJBounds: s.PJBounds,
			PBounds:  s.PBounds,
			Quality:  model,
		},
		K:      k,
		Solver: s.Solver,
	}
	return &Instance{Config: cfg, Means: means}
}

// PolicySet names the paper's comparison algorithms in presentation
// order. Epsilons follows the paper: ε ∈ {0.1, 0.5} shown.
var PolicyNames = []string{"optimal", "CMAB-HS", "0.1-first", "0.5-first", "random"}

// Policies instantiates the comparison set for one instance. horizon
// is the run length the ε-first phase split is computed against.
func Policies(inst *Instance, horizon int, src *rng.Source) []bandit.Policy {
	return []bandit.Policy{
		bandit.NewOracle(inst.Means),
		&bandit.UCBGreedy{},
		bandit.NewEpsilonFirst(0.1, horizon, src.Split(0xe1)),
		bandit.NewEpsilonFirst(0.5, horizon, src.Split(0xe5)),
		bandit.NewRandom(src.Split(0xaa)),
	}
}

// SettingsTable renders Table II (the simulation settings) with the
// actual values this harness runs.
func SettingsTable(s Settings) *stats.Table {
	t := stats.NewTable("Table II: simulation settings", "parameter", "value(s)")
	t.AddRow("number of rounds N", fmt.Sprintf("5k,40k,80k,100k*,120k,160k,200k (scale 1/%d)", max(1, s.Scale)))
	t.AddRow("number of sellers M", "50,100,150,200,250,300*")
	t.AddRow("number of selected sellers K", "10*,20,30,40,50,60")
	t.AddRow("valuation parameter omega", "600,800,1000*,1200,1400")
	t.AddRow("cost parameter theta,lambda", fmt.Sprintf("theta=%.2g* in [0.1,1], lambda=%.2g* in [0.5,2]", s.Theta, s.Lambda))
	t.AddRow("cost parameters a,b", fmt.Sprintf("a in [%.2g,%.2g], b in [%.2g,%.2g]", s.ARange.Lo, s.ARange.Hi, s.BRange.Lo, s.BRange.Hi))
	t.AddRow("expected qualities q", fmt.Sprintf("uniform [%.2g,%.2g], truncated-Gaussian obs sd=%.2g", s.QRange.Lo, s.QRange.Hi, s.SD))
	t.AddRow("price bounds", fmt.Sprintf("p^J in [%.4g,%.4g], p in [%.4g,%.4g]", s.PJBounds.Min, s.PJBounds.Max, s.PBounds.Min, s.PBounds.Max))
	t.AddRow("(* = default)", "")
	return t
}
