package core

import (
	"math"
	"testing"

	"cmabhs/internal/bandit"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/market"
	"cmabhs/internal/numutil"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

// testConfig builds a small market: m sellers with spread-out
// qualities and Table II cost ranges, n rounds, l PoIs.
func testConfig(t *testing.T, m, k, n, l int, seed int64) (*Config, []float64) {
	t.Helper()
	return buildTestConfig(m, k, n, l, seed)
}

// buildTestConfig is the t-free body of testConfig, shared with the
// fuzz targets.
func buildTestConfig(m, k, n, l int, seed int64) (*Config, []float64) {
	src := rng.New(seed)
	means := make([]float64, m)
	sellers := make([]market.SellerSpec, m)
	for i := range means {
		means[i] = src.Uniform(0.05, 0.95)
		sellers[i] = market.SellerSpec{Cost: economics.SellerCost{
			A: src.Uniform(0.1, 0.5),
			B: src.Uniform(0.1, 1),
		}}
	}
	model, err := quality.NewTruncGaussian(means, 0.1, src.Split(1))
	if err != nil {
		panic(err) // unreachable: means are drawn inside [0, 1]
	}
	cfg := &Config{
		Market: market.Config{
			Job:      market.Job{L: l, N: n},
			Sellers:  sellers,
			Platform: economics.PlatformCost{Theta: 0.1, Lambda: 1},
			Consumer: economics.Valuation{Omega: 1000},
			PJBounds: game.Bounds{Min: 0, Max: 100},
			PBounds:  game.Bounds{Min: 0, Max: 5},
			Quality:  model,
		},
		K: k,
	}
	return cfg, means
}

func TestConfigValidate(t *testing.T) {
	cfg, _ := testConfig(t, 5, 2, 10, 3, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"K zero", func(c *Config) { c.K = 0 }},
		{"K > M", func(c *Config) { c.K = 6 }},
		{"negative tau0", func(c *Config) { c.Tau0 = -1 }},
		{"bad checkpoints", func(c *Config) { c.Checkpoints = []int{5, 5} }},
		{"no rounds", func(c *Config) { c.Market.Job.N = 0 }},
	}
	for _, tc := range cases {
		cfg, _ := testConfig(t, 5, 2, 10, 3, 1)
		tc.mutate(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunNilPolicy(t *testing.T) {
	cfg, _ := testConfig(t, 5, 2, 10, 3, 1)
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("nil policy should fail")
	}
}

func TestRunBasicShape(t *testing.T) {
	cfg, _ := testConfig(t, 8, 3, 50, 4, 2)
	cfg.KeepRounds = true
	res, err := Run(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "CMAB-HS" {
		t.Errorf("policy name %q", res.Policy)
	}
	if res.RoundsPlayed != 50 || len(res.Rounds) != 50 {
		t.Fatalf("rounds played %d, kept %d", res.RoundsPlayed, len(res.Rounds))
	}
	// Round 1 selects everybody at τ⁰ and p_max.
	r1 := res.Rounds[0]
	if len(r1.Selected) != 8 {
		t.Errorf("round 1 selected %d sellers", len(r1.Selected))
	}
	if r1.P != cfg.Market.PBounds.Max {
		t.Errorf("round 1 price %v", r1.P)
	}
	if !numutil.AlmostEqual(r1.TotalTau, 8, 1e-9) { // default τ⁰=1
		t.Errorf("round 1 total sensing time %v", r1.TotalTau)
	}
	// The initial p^J is calibrated for zero platform profit.
	if math.Abs(r1.PoP) > 1e-6 {
		t.Errorf("round 1 platform profit %v, want ≈0", r1.PoP)
	}
	// Later rounds select exactly K.
	for _, r := range res.Rounds[1:] {
		if len(r.Selected) != 3 || len(r.Taus) != 3 || len(r.SellerProfits) != 3 {
			t.Fatalf("round %d shape wrong: %+v", r.Round, r)
		}
		if r.TotalTau < 0 {
			t.Fatalf("round %d negative total tau", r.Round)
		}
	}
	if res.RealizedRevenue <= 0 || res.ExpectedRevenue <= 0 {
		t.Error("revenues should be positive")
	}
	if res.Regret < 0 {
		t.Errorf("negative regret %v", res.Regret)
	}
	if len(res.Estimates) != 8 {
		t.Errorf("estimates length %d", len(res.Estimates))
	}
}

func TestRunDeterministicQualityConvergesToOracle(t *testing.T) {
	// With noise-free observations, estimates equal the true means
	// after round 1, so UCB exploitation and the oracle agree except
	// for forced exploration of the confidence terms.
	m, k := 6, 2
	means := []float64{0.9, 0.8, 0.5, 0.4, 0.3, 0.2}
	model, err := quality.NewDeterministic(means)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	sellers := make([]market.SellerSpec, m)
	for i := range sellers {
		sellers[i] = market.SellerSpec{Cost: economics.SellerCost{A: 0.3, B: 0.2}}
	}
	cfg := &Config{
		Market: market.Config{
			Job:      market.Job{L: 5, N: 400},
			Sellers:  sellers,
			Platform: economics.PlatformCost{Theta: 0.1, Lambda: 1},
			Consumer: economics.Valuation{Omega: 1000},
			PJBounds: game.Bounds{Min: 0, Max: 100},
			PBounds:  game.Bounds{Min: 0, Max: 5},
			Quality:  model,
		},
		K: k,
	}
	res, err := Run(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	for i, est := range res.Estimates {
		if !numutil.AlmostEqual(est, means[i], 1e-9) {
			t.Errorf("estimate %d = %v, want %v", i, est, means[i])
		}
	}
	// Oracle regret is exactly zero (after the exploration round).
	oracle, err := Run(cfg, bandit.NewOracle(means))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Regret != 0 {
		t.Errorf("oracle regret %v", oracle.Regret)
	}
	// UCB pays only for forced exploration; per-round regret must be
	// a small fraction of the random policy's.
	random, err := Run(cfg, bandit.NewRandom(src))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Regret < random.Regret/3) {
		t.Errorf("UCB regret %v vs random %v", res.Regret, random.Regret)
	}
}

func TestRunLedgerConservation(t *testing.T) {
	cfg, _ := testConfig(t, 10, 3, 100, 5, 7)
	// Run needs access to the market to check the ledger; use the
	// observer to count and rebuild the market via the public pieces.
	var poCSum float64
	cfg.Observer = func(ev *RoundEvent) { poCSum += ev.Record.PoC }
	res, err := Run(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.AlmostEqual(poCSum, res.CumPoC, 1e-9) {
		t.Errorf("observer sum %v != CumPoC %v", poCSum, res.CumPoC)
	}
}

func TestRunCheckpoints(t *testing.T) {
	cfg, _ := testConfig(t, 8, 3, 60, 4, 9)
	cfg.Checkpoints = []int{10, 30, 60}
	res, err := Run(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 3 {
		t.Fatalf("checkpoints %d", len(res.Checkpoints))
	}
	prev := Checkpoint{}
	for _, c := range res.Checkpoints {
		if c.RealizedRevenue < prev.RealizedRevenue || c.Regret < prev.Regret {
			t.Errorf("cumulative metrics must be monotone: %+v then %+v", prev, c)
		}
		prev = c
	}
	last := res.Checkpoints[2]
	if !numutil.AlmostEqual(last.RealizedRevenue, res.RealizedRevenue, 1e-9) ||
		!numutil.AlmostEqual(last.Regret, res.Regret, 1e-9) ||
		!numutil.AlmostEqual(last.CumPoC, res.CumPoC, 1e-9) {
		t.Errorf("final checkpoint %+v != totals", last)
	}
}

func TestRunReproducible(t *testing.T) {
	run := func() *Result {
		cfg, _ := testConfig(t, 8, 3, 80, 4, 11)
		res, err := Run(cfg, &bandit.UCBGreedy{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.RealizedRevenue != b.RealizedRevenue || a.Regret != b.Regret ||
		a.CumPoC != b.CumPoC || a.CumPoP != b.CumPoP || a.CumPoS != b.CumPoS {
		t.Error("same seed must reproduce the run exactly")
	}
}

func TestRunRegretOrdering(t *testing.T) {
	// The paper's headline comparison: optimal ≤ CMAB-HS ≤ random in
	// regret; CMAB-HS below the Theorem 19 bound.
	cfg, means := testConfig(t, 15, 3, 2000, 5, 13)
	src := rng.New(99)
	ucb, err := Run(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := testConfig(t, 15, 3, 2000, 5, 13)
	oracle, err := Run(cfg2, bandit.NewOracle(means))
	if err != nil {
		t.Fatal(err)
	}
	cfg3, _ := testConfig(t, 15, 3, 2000, 5, 13)
	random, err := Run(cfg3, bandit.NewRandom(src))
	if err != nil {
		t.Fatal(err)
	}
	if !(oracle.Regret <= ucb.Regret && ucb.Regret < random.Regret) {
		t.Errorf("regret ordering violated: oracle=%v ucb=%v random=%v",
			oracle.Regret, ucb.Regret, random.Regret)
	}
	if !(ucb.Regret < ucb.RegretBound) {
		t.Errorf("regret %v above bound %v", ucb.Regret, ucb.RegretBound)
	}
	// Revenue ordering mirrors regret.
	if !(oracle.ExpectedRevenue >= ucb.ExpectedRevenue && ucb.ExpectedRevenue > random.ExpectedRevenue) {
		t.Errorf("revenue ordering violated: oracle=%v ucb=%v random=%v",
			oracle.ExpectedRevenue, ucb.ExpectedRevenue, random.ExpectedRevenue)
	}
}

func TestRunExactSolverNoWorseForConsumer(t *testing.T) {
	cfg, _ := testConfig(t, 10, 4, 300, 4, 17)
	closed, err := Run(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	cfgE, _ := testConfig(t, 10, 4, 300, 4, 17)
	cfgE.Solver = Exact
	exact, err := Run(cfgE, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	// The exact solver re-prices both leaders consistently; profits
	// shift slightly in either direction but stay close and positive.
	if closed.CumPoC <= 0 || exact.CumPoC <= 0 {
		t.Fatalf("profits should be positive: closed=%v exact=%v", closed.CumPoC, exact.CumPoC)
	}
	if gap := math.Abs(exact.CumPoC-closed.CumPoC) / closed.CumPoC; gap > 0.2 {
		t.Errorf("solver CumPoC gap %v too large (closed=%v exact=%v)", gap, closed.CumPoC, exact.CumPoC)
	}
}

func TestSolverString(t *testing.T) {
	if ClosedForm.String() != "closed-form" || Exact.String() != "exact" ||
		Numeric.String() != "numeric" || Solver(9).String() != "Solver(9)" {
		t.Error("Solver.String wrong")
	}
}

func BenchmarkRunRound(b *testing.B) {
	src := rng.New(1)
	m := 300
	means := quality.RandomMeans(m, 0, 1, src)
	sellers := make([]market.SellerSpec, m)
	for i := range sellers {
		sellers[i] = market.SellerSpec{Cost: economics.SellerCost{
			A: src.Uniform(0.1, 0.5), B: src.Uniform(0.1, 1),
		}}
	}
	model, err := quality.NewTruncGaussian(means, 0.1, src.Split(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := &Config{
		Market: market.Config{
			Job:      market.Job{L: 10, N: b.N + 1},
			Sellers:  sellers,
			Platform: economics.PlatformCost{Theta: 0.1, Lambda: 1},
			Consumer: economics.Valuation{Omega: 1000},
			PJBounds: game.Bounds{Min: 0, Max: 100},
			PBounds:  game.Bounds{Min: 0, Max: 5},
			Quality:  model,
		},
		K: 10,
	}
	b.ResetTimer()
	if _, err := Run(cfg, &bandit.UCBGreedy{}); err != nil {
		b.Fatal(err)
	}
}
