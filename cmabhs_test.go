package cmabhs

import (
	"context"
	"errors"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cmabhs/internal/economics"
	"cmabhs/internal/game"
)

func TestRandomConfig(t *testing.T) {
	cfg := RandomConfig(50, 5, 100, 7)
	if len(cfg.Sellers) != 50 || cfg.K != 5 || cfg.Rounds != 100 {
		t.Fatalf("shape: %d sellers K=%d N=%d", len(cfg.Sellers), cfg.K, cfg.Rounds)
	}
	for i, s := range cfg.Sellers {
		if s.CostQuadratic < 0.1 || s.CostQuadratic > 0.5 {
			t.Errorf("seller %d a=%v outside [0.1,0.5]", i, s.CostQuadratic)
		}
		if s.CostLinear < 0.1 || s.CostLinear > 1 {
			t.Errorf("seller %d b=%v outside [0.1,1]", i, s.CostLinear)
		}
		if s.ExpectedQuality < 0 || s.ExpectedQuality > 1 {
			t.Errorf("seller %d q=%v outside [0,1]", i, s.ExpectedQuality)
		}
	}
}

func TestRunDefaultsAndShape(t *testing.T) {
	cfg := RandomConfig(20, 4, 200, 3)
	cfg.KeepRounds = true
	cfg.Checkpoints = []int{50, 200}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "CMAB-HS" {
		t.Errorf("policy %q", res.Policy)
	}
	if res.Rounds != 200 || len(res.PerRound) != 200 {
		t.Fatalf("rounds %d / %d", res.Rounds, len(res.PerRound))
	}
	if len(res.Checkpoints) != 2 || res.Checkpoints[1].Round != 200 {
		t.Fatalf("checkpoints %+v", res.Checkpoints)
	}
	if res.RealizedRevenue <= 0 || res.Regret < 0 {
		t.Errorf("revenue=%v regret=%v", res.RealizedRevenue, res.Regret)
	}
	if len(res.Estimates) != 20 {
		t.Errorf("estimates %d", len(res.Estimates))
	}
	if res.AvgConsumerProfit() <= 0 {
		t.Errorf("avg PoC %v", res.AvgConsumerProfit())
	}
	if res.AvgPlatformProfit() < 0 {
		t.Errorf("avg PoP %v", res.AvgPlatformProfit())
	}
	if res.AvgSellerProfit(4) < 0 {
		t.Errorf("avg PoS %v", res.AvgSellerProfit(4))
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	cfg := RandomConfig(5, 2, 10, 1)
	cfg.Policy = "no-such-policy"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown policy should fail")
	}
	cfg = RandomConfig(5, 2, 10, 1)
	cfg.Solver = "no-such-solver"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown solver should fail")
	}
	cfg = RandomConfig(5, 6, 10, 1) // K > M
	if _, err := Run(cfg); err == nil {
		t.Error("K > M should fail")
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, p := range []Policy{PolicyCMABHS, PolicyOptimal, PolicyEpsilonFirst,
		PolicyEpsilonGreedy, PolicyRandom, PolicyThompson, PolicyUCB1} {
		cfg := RandomConfig(10, 3, 50, 2)
		cfg.Policy = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Rounds != 50 {
			t.Errorf("%s played %d rounds", p, res.Rounds)
		}
	}
}

func TestRunPolicyOrdering(t *testing.T) {
	run := func(p Policy) *Result {
		cfg := RandomConfig(15, 3, 1500, 11)
		cfg.Policy = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	opt := run(PolicyOptimal)
	ucb := run(PolicyCMABHS)
	rnd := run(PolicyRandom)
	if !(opt.Regret <= ucb.Regret && ucb.Regret < rnd.Regret) {
		t.Errorf("regret ordering: opt=%v ucb=%v rnd=%v", opt.Regret, ucb.Regret, rnd.Regret)
	}
	if !(ucb.Regret < ucb.RegretBound) {
		t.Errorf("regret %v above Theorem 19 bound %v", ucb.Regret, ucb.RegretBound)
	}
}

func TestRunReproducible(t *testing.T) {
	cfg := RandomConfig(10, 3, 100, 5)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RealizedRevenue != b.RealizedRevenue || a.Regret != b.Regret {
		t.Error("same config must reproduce exactly")
	}
}

func TestSolveGame(t *testing.T) {
	cfg := GameConfig{
		Sellers: []GameSeller{
			{CostQuadratic: 0.2, CostLinear: 0.1, Quality: 0.8},
			{CostQuadratic: 0.3, CostLinear: 0.2, Quality: 0.6},
			{CostQuadratic: 0.4, CostLinear: 0.3, Quality: 0.9},
		},
	}
	out, err := SolveGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NoTrade {
		t.Fatal("defaults should trade")
	}
	if out.ConsumerPrice <= 0 || out.PlatformPrice <= 0 || out.TotalTime <= 0 {
		t.Errorf("degenerate outcome %+v", out)
	}
	if out.ConsumerProfit <= 0 || out.PlatformProfit <= 0 {
		t.Errorf("profits: PoC=%v PoP=%v", out.ConsumerProfit, out.PlatformProfit)
	}
	// Equilibrium is a best response for the consumer: nearby prices
	// with followers reacting cannot beat it.
	for _, dpj := range []float64{-1, -0.1, 0.1, 1} {
		dev, err := EvaluateGame(cfg, out.ConsumerPrice+dpj, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = dev // platform price 0 ⇒ sellers opt out; checks the API, not optimality
	}
	// Seller deviations at fixed prices cannot beat τ*.
	for i := range cfg.Sellers {
		taus := append([]float64(nil), out.SensingTimes...)
		taus[i] *= 1.5
		dev, err := EvaluateGame(cfg, out.ConsumerPrice, out.PlatformPrice, taus)
		if err != nil {
			t.Fatal(err)
		}
		if dev.SellerProfits[i] > out.SellerProfits[i]+1e-9 {
			t.Errorf("seller %d deviation profits", i)
		}
	}
}

func TestSolveGameSolvers(t *testing.T) {
	cfg := GameConfig{
		Sellers: []GameSeller{
			{CostQuadratic: 0.2, CostLinear: 0.1, Quality: 0.8},
			{CostQuadratic: 0.3, CostLinear: 0.9, Quality: 0.9},
		},
	}
	for _, s := range []Solver{SolverClosedForm, SolverExact, SolverNumeric} {
		cfg.Solver = s
		out, err := SolveGame(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out.NoTrade {
			t.Errorf("%s: unexpected no-trade", s)
		}
	}
	cfg.Solver = "bogus"
	if _, err := SolveGame(cfg); err == nil {
		t.Error("bogus solver should fail")
	}
	if _, err := SolveGame(GameConfig{}); err == nil {
		t.Error("empty game should fail")
	}
}

func TestEvaluateGameErrors(t *testing.T) {
	cfg := GameConfig{Sellers: []GameSeller{{CostQuadratic: 0.2, CostLinear: 0.1, Quality: 0.5}}}
	if _, err := EvaluateGame(cfg, 1, 1, []float64{1, 2}); err == nil {
		t.Error("mismatched taus should fail")
	}
	bad := GameConfig{Sellers: []GameSeller{{CostQuadratic: 0, CostLinear: 0, Quality: 0.5}}}
	if _, err := EvaluateGame(bad, 1, 1, nil); err == nil {
		t.Error("invalid seller cost should fail")
	}
}

func TestTraceFacade(t *testing.T) {
	recs := GenerateTrace(TraceConfig{Seed: 3, Trips: 5000})
	if len(recs) != 5000 {
		t.Fatalf("trips %d", len(recs))
	}
	var sb strings.Builder
	if err := WriteTraceCSV(&sb, recs[:100]); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTraceCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 100 {
		t.Fatalf("round trip %d", len(back))
	}
	pois, taxis, cfg := TraceMarket(recs, 10, 50, 9)
	if len(pois) != 10 {
		t.Errorf("pois %d", len(pois))
	}
	if len(taxis) != 50 || len(cfg.Sellers) != 50 {
		t.Errorf("taxis %d sellers %d", len(taxis), len(cfg.Sellers))
	}
	cfg.K = 5
	cfg.Rounds = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 50 {
		t.Errorf("rounds %d", res.Rounds)
	}
}

func TestTraceMarketSmall(t *testing.T) {
	t0 := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	recs := []TripRecord{
		{TaxiID: "a", Start: t0, End: t0, TripMiles: 1, PickupArea: 1, DropoffArea: 2},
		{TaxiID: "b", Start: t0, End: t0, TripMiles: 1, PickupArea: 1, DropoffArea: 1},
	}
	pois, taxis, cfg := TraceMarket(recs, 1, 0, 1)
	if len(pois) != 1 || pois[0] != 1 {
		t.Errorf("pois %v", pois)
	}
	if len(taxis) != 2 || taxis[0] != "b" { // b visits PoI 1 twice
		t.Errorf("taxis %v", taxis)
	}
	if cfg.PoIs != 1 {
		t.Errorf("cfg.PoIs = %d", cfg.PoIs)
	}
}

func TestRunExactVsClosedFormClose(t *testing.T) {
	base := RandomConfig(12, 4, 300, 21)
	closed, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Solver = SolverExact
	exact, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if closed.ConsumerProfit <= 0 || exact.ConsumerProfit <= 0 {
		t.Fatal("profits should be positive")
	}
	gap := math.Abs(exact.ConsumerProfit-closed.ConsumerProfit) / closed.ConsumerProfit
	if gap > 0.2 {
		t.Errorf("solver gap %v", gap)
	}
}

func TestRunBudgetCap(t *testing.T) {
	cfg := RandomConfig(12, 3, 5000, 8)
	free, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = free.ConsumerSpend / 20
	capped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stopped != "budget exhausted" {
		t.Fatalf("Stopped = %q", capped.Stopped)
	}
	if capped.Rounds >= free.Rounds {
		t.Error("budgeted run should stop early")
	}
	if capped.ConsumerSpend < cfg.Budget {
		t.Error("run stopped before reaching the budget")
	}
}

func TestRunDeparturesPublic(t *testing.T) {
	cfg := RandomConfig(6, 2, 200, 9)
	cfg.Departures = make([]int, 6)
	cfg.Departures[0] = 50
	cfg.KeepRounds = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.PerRound {
		if r.Round < 50 {
			continue
		}
		for _, i := range r.Selected {
			if i == 0 {
				t.Fatalf("round %d selected departed seller", r.Round)
			}
		}
	}
}

func TestRunCollectData(t *testing.T) {
	cfg := RandomConfig(15, 4, 400, 10)
	cfg.CollectData = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.AggregationRMSE) || res.AggregationRMSE <= 0 {
		t.Fatalf("AggregationRMSE = %v", res.AggregationRMSE)
	}
	// Random selection on the same market aggregates worse.
	cfg.Policy = PolicyRandom
	rnd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.AggregationRMSE < rnd.AggregationRMSE) {
		t.Errorf("CMAB-HS RMSE %v should beat random %v", res.AggregationRMSE, rnd.AggregationRMSE)
	}
	// Without CollectData the metric is NaN.
	plain := RandomConfig(15, 4, 50, 10)
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pres.AggregationRMSE) {
		t.Errorf("expected NaN, got %v", pres.AggregationRMSE)
	}
}

func TestRunQualityDrift(t *testing.T) {
	cfg := RandomConfig(10, 3, 800, 12)
	cfg.QualityDrift = &Drift{Amplitude: 0.3, Period: 200}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.DynamicRegret) || res.DynamicRegret < 0 {
		t.Fatalf("DynamicRegret = %v", res.DynamicRegret)
	}
	// The forgetting policies run end to end on the same market.
	for _, p := range []Policy{PolicySlidingWindow, PolicyDiscounted} {
		c := cfg
		c.Policy = p
		r, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if math.IsNaN(r.DynamicRegret) {
			t.Errorf("%s: dynamic regret not tracked", p)
		}
	}
	// Without drift the metric is NaN.
	plain := RandomConfig(10, 3, 50, 12)
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pres.DynamicRegret) {
		t.Errorf("DynamicRegret = %v, want NaN", pres.DynamicRegret)
	}
	// Bad drift parameters are rejected.
	bad := RandomConfig(5, 2, 10, 1)
	bad.QualityDrift = &Drift{Amplitude: 0.3, Period: 0}
	if _, err := Run(bad); err == nil {
		t.Error("zero period should fail")
	}
	// Bad window/gamma are rejected.
	bw := RandomConfig(5, 2, 10, 1)
	bw.Policy = PolicySlidingWindow
	bw.Window = -1
	if _, err := Run(bw); err == nil {
		t.Error("negative window should fail")
	}
	bg := RandomConfig(5, 2, 10, 1)
	bg.Policy = PolicyDiscounted
	bg.Gamma = 2
	if _, err := Run(bg); err == nil {
		t.Error("gamma > 1 should fail")
	}
}

func TestSessionStepping(t *testing.T) {
	cfg := RandomConfig(8, 2, 30, 13)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Done() || sess.NextRound() != 1 {
		t.Fatal("fresh session state wrong")
	}
	first, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if first.Round != 1 || len(first.Selected) != 8 {
		t.Fatalf("round 1 record %+v", first)
	}
	adv, err := sess.Advance(100)
	if err != nil {
		t.Fatal(err)
	}
	rest := adv.Played
	if len(rest) != 29 || !sess.Done() {
		t.Fatalf("stepped %d more rounds, done=%v", len(rest), sess.Done())
	}
	if r, err := sess.Step(); r != nil || err != nil {
		t.Fatal("stepping a finished session should be a no-op")
	}
	res := sess.Result()
	if res.Rounds != 30 {
		t.Fatalf("result rounds %d", res.Rounds)
	}
	// Stepping matches a one-shot run exactly.
	whole, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.RealizedRevenue != res.RealizedRevenue || whole.Regret != res.Regret {
		t.Error("session and Run should agree exactly")
	}
	if len(sess.Estimates()) != 8 {
		t.Error("estimates length")
	}
}

func TestSessionAdvanceContext(t *testing.T) {
	cfg := RandomConfig(8, 2, 30, 13)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	adv, err := sess.AdvanceContext(dead, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Played) != 0 || adv.Stopped != StoppedCanceled {
		t.Fatalf("dead-ctx advance: played %d, stopped %q", len(adv.Played), adv.Stopped)
	}
	if sess.Done() || sess.NextRound() != 1 {
		t.Fatal("cancelled advance must leave the session resumable")
	}
	adv, err = sess.AdvanceContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Played) != 30 || adv.Stopped != "" || !sess.Done() {
		t.Fatalf("live advance: played %d, stopped %q, done %v", len(adv.Played), adv.Stopped, sess.Done())
	}

	// RunContext with a dead context reports a partial (empty) result.
	res, err := RunContext(dead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Stopped != StoppedCanceled {
		t.Fatalf("dead-ctx run: rounds %d, stopped %q", res.Rounds, res.Stopped)
	}
	// And a live RunContext matches Run exactly.
	whole, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.RealizedRevenue != sess.Result().RealizedRevenue {
		t.Error("RunContext and session should agree exactly")
	}
}

// TestSessionAdvanceEach checks the borrowed-round advance against a
// twin on AdvanceContext: the same rounds in the same order, handed
// over one at a time in storage the next round reuses, with the
// observer firing first and its event reused too.
func TestSessionAdvanceEach(t *testing.T) {
	cfg := RandomConfig(20, 4, 40, 17)
	twin, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.AdvanceContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []*RoundEvent
	lastObserved := 0
	sess.Observe(func(ev *RoundEvent) {
		events = append(events, ev)
		lastObserved = ev.Round.Round
	})
	var got []Round
	var borrowed []*Round
	played, stopped, err := sess.AdvanceEach(context.Background(), 0, func(r *Round) {
		if lastObserved != r.Round {
			t.Fatalf("round %d handed over before its observer ran (observer at %d)", r.Round, lastObserved)
		}
		got = append(got, r.owned())
		borrowed = append(borrowed, r)
	})
	if err != nil || stopped != "" || played != len(want.Played) || !sess.Done() {
		t.Fatalf("AdvanceEach: played %d of %d, stopped %q, err %v", played, len(want.Played), stopped, err)
	}
	if !reflect.DeepEqual(got, want.Played) {
		t.Fatal("AdvanceEach rounds differ from AdvanceContext's")
	}
	if borrowed[0] != borrowed[len(borrowed)-1] || events[0] != events[len(events)-1] {
		t.Fatal("the borrowed round and the observer event should be reused every round")
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	fresh, _ := NewSession(cfg)
	played, stopped, err = fresh.AdvanceEach(dead, 5, func(*Round) { t.Fatal("round played on a dead context") })
	if played != 0 || stopped != StoppedCanceled || err != nil {
		t.Fatalf("dead-ctx AdvanceEach: played %d, stopped %q, err %v", played, stopped, err)
	}
}

func TestRunDeliveryRatePublic(t *testing.T) {
	cfg := RandomConfig(10, 3, 500, 14)
	reliable, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DeliveryRate = 0.5
	flaky, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(flaky.RealizedRevenue < 0.8*reliable.RealizedRevenue) {
		t.Errorf("flaky revenue %v vs reliable %v", flaky.RealizedRevenue, reliable.RealizedRevenue)
	}
	cfg.DeliveryRate = 2
	if _, err := Run(cfg); err == nil {
		t.Error("rate > 1 should fail")
	}
}

func TestPerSellerProfitTotals(t *testing.T) {
	cfg := RandomConfig(8, 3, 300, 15)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSellerProfit) != 8 {
		t.Fatalf("per-seller totals %d", len(res.PerSellerProfit))
	}
	var sum float64
	for _, v := range res.PerSellerProfit {
		if v < 0 {
			t.Errorf("negative seller total %v", v)
		}
		sum += v
	}
	if math.Abs(sum-res.SellerProfit) > 1e-6*(1+math.Abs(res.SellerProfit)) {
		t.Errorf("per-seller totals sum %v != SellerProfit %v", sum, res.SellerProfit)
	}
}

func TestPerRoundAggregationRMSE(t *testing.T) {
	cfg := RandomConfig(8, 3, 40, 16)
	cfg.CollectData = true
	cfg.KeepRounds = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	positive := 0
	for _, r := range res.PerRound {
		if math.IsNaN(r.AggregationRMSE) {
			t.Fatal("public per-round RMSE must never be NaN")
		}
		if r.AggregationRMSE > 0 {
			positive++
		}
	}
	if positive != len(res.PerRound) {
		t.Errorf("only %d/%d rounds carry RMSE", positive, len(res.PerRound))
	}
	// Without CollectData it is zero.
	plain := RandomConfig(5, 2, 10, 16)
	plain.KeepRounds = true
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pres.PerRound {
		if r.AggregationRMSE != 0 {
			t.Fatalf("RMSE %v without data layer", r.AggregationRMSE)
		}
	}
}

// TestOutOfRangeEconomicsRefused checks that economic inputs outside
// the envelope (economics.MinParam/MaxParam) are refused at entry with
// the validation sentinel — by NewSession, by ResumeSession on an
// edited snapshot, and by SolveGame/EvaluateGame — instead of
// overflowing into NaN rounds later.
func TestOutOfRangeEconomicsRefused(t *testing.T) {
	base := RandomConfig(6, 2, 20, 1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want error
	}{
		{"omega", func(c *Config) { c.Omega = 1e308 }, economics.ErrBadValuation},
		{"lambda", func(c *Config) { c.Lambda = 1e308 }, economics.ErrBadPlatformCost},
		{"theta", func(c *Config) { c.Theta = 1e308 }, economics.ErrBadPlatformCost},
		{"tiny theta", func(c *Config) { c.Theta = 1e-300 }, economics.ErrBadPlatformCost},
		{"tiny a", func(c *Config) { c.Sellers[0].CostQuadratic = 1e-300 }, economics.ErrBadSellerCost},
		{"huge b", func(c *Config) { c.Sellers[0].CostLinear = 1e308 }, economics.ErrBadSellerCost},
		{"p_max", func(c *Config) { c.PMax = 1e308 }, game.ErrBadBounds},
		{"pj_max", func(c *Config) { c.PJMax = 1e308 }, game.ErrBadBounds},
		{"T", func(c *Config) { c.RoundDuration = 1e308 }, game.ErrBadMaxTau},
	} {
		cfg := base
		cfg.Sellers = append([]Seller(nil), base.Sellers...)
		tc.edit(&cfg)
		if _, err := NewSession(cfg); !errors.Is(err, tc.want) {
			t.Errorf("NewSession %s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	big := base
	big.Tau0 = 1e308
	if _, err := NewSession(big); err == nil {
		t.Error("NewSession accepted Tau0 = 1e308")
	}

	sess, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	omega := regexp.MustCompile(`"Omega":[^,}]*`)
	if !omega.Match(data) {
		t.Fatalf("snapshot has no Omega field")
	}
	if _, err := ResumeSession(omega.ReplaceAll(data, []byte(`"Omega":1e308`))); !errors.Is(err, economics.ErrBadValuation) {
		t.Errorf("ResumeSession omega: err %v, want %v", err, economics.ErrBadValuation)
	}

	gc := GameConfig{Sellers: []GameSeller{{0.2, 0.1, 0.9}, {0.3, 0.2, 0.5}}}
	for _, tc := range []struct {
		name string
		edit func(*GameConfig)
		want error
	}{
		{"omega", func(c *GameConfig) { c.Omega = 1e308 }, economics.ErrBadValuation},
		{"lambda", func(c *GameConfig) { c.Lambda = 1e308 }, economics.ErrBadPlatformCost},
		{"tiny a", func(c *GameConfig) { c.Sellers = []GameSeller{{1e-300, 0.1, 0.9}} }, economics.ErrBadSellerCost},
		{"tiny q", func(c *GameConfig) { c.Sellers = []GameSeller{{0.2, 0.1, 1e-300}} }, game.ErrBadQuality},
		{"T", func(c *GameConfig) { c.MaxSensing = math.Inf(1) }, game.ErrBadMaxTau},
	} {
		c := gc
		tc.edit(&c)
		for _, solver := range []Solver{SolverClosedForm, SolverExact, SolverNumeric} {
			c.Solver = solver
			if _, err := SolveGame(c); !errors.Is(err, tc.want) {
				t.Errorf("SolveGame %s (%s): err %v, want %v", tc.name, solver, err, tc.want)
			}
		}
		if _, err := EvaluateGame(c, 10, 1, nil); !errors.Is(err, tc.want) {
			t.Errorf("EvaluateGame %s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}
