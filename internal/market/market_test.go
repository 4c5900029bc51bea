package market

import (
	"math"
	"testing"

	"cmabhs/internal/aggregate"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/ledger"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	means := []float64{0.3, 0.6, 0.9}
	model, err := quality.NewTruncGaussian(means, 0.1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Job: Job{L: 4, N: 10, Description: "test job"},
		Sellers: []SellerSpec{
			{Cost: economics.SellerCost{A: 0.2, B: 0.1}},
			{Cost: economics.SellerCost{A: 0.3, B: 0.2}},
			{Cost: economics.SellerCost{A: 0.4, B: 0.3}},
		},
		Platform: economics.PlatformCost{Theta: 0.1, Lambda: 1},
		Consumer: economics.Valuation{Omega: 1000},
		PJBounds: game.Bounds{Min: 0, Max: 100},
		PBounds:  game.Bounds{Min: 0, Max: 5},
		Quality:  model,
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig(t)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no PoIs", func(c *Config) { c.Job.L = 0 }},
		{"no rounds", func(c *Config) { c.Job.N = 0 }},
		{"no sellers", func(c *Config) { c.Sellers = nil }},
		{"bad seller cost", func(c *Config) { c.Sellers[0].Cost.A = 0 }},
		{"bad platform", func(c *Config) { c.Platform.Theta = 0 }},
		{"bad consumer", func(c *Config) { c.Consumer.Omega = 1 }},
		{"bad pJ bounds", func(c *Config) { c.PJBounds = game.Bounds{Min: 2, Max: 1} }},
		{"bad p bounds", func(c *Config) { c.PBounds = game.Bounds{Min: -1, Max: 1} }},
		{"nil quality", func(c *Config) { c.Quality = nil }},
	}
	for _, tc := range cases {
		cfg := testConfig(t)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Seller/quality-model size mismatch.
	cfg = testConfig(t)
	cfg.Sellers = cfg.Sellers[:2]
	if err := cfg.Validate(); err == nil {
		t.Error("model/seller mismatch should fail")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cfg := testConfig(t)
	cfg.Job.N = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestGameParams(t *testing.T) {
	mkt, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	estimates := []float64{0.5, 0, 2} // includes degenerate values
	p := mkt.GameParams([]int{0, 2}, estimates, 1e-6)
	if len(p.Sellers) != 2 || len(p.Qualities) != 2 {
		t.Fatalf("shape: %d sellers", len(p.Sellers))
	}
	if p.Sellers[0].A != 0.2 || p.Sellers[1].A != 0.4 {
		t.Error("seller cost mapping wrong")
	}
	if p.Qualities[0] != 0.5 {
		t.Errorf("quality 0 = %v", p.Qualities[0])
	}
	if p.Qualities[1] != 1 {
		t.Errorf("quality above 1 should clamp to 1, got %v", p.Qualities[1])
	}
	// Floor applies to the zero estimate.
	p2 := mkt.GameParams([]int{1}, estimates, 1e-6)
	if p2.Qualities[0] != 1e-6 {
		t.Errorf("floored quality = %v", p2.Qualities[0])
	}
	// Game params carry the market's economics and the job's T.
	if p.Platform.Theta != 0.1 || p.Consumer.Omega != 1000 || p.MaxTau != 0 {
		t.Error("market parameters not propagated")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("assembled params invalid: %v", err)
	}
}

func TestCollectShapeAndRange(t *testing.T) {
	mkt, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		row := mkt.Collect(1, i)
		if len(row) != 4 { // L PoIs
			t.Fatalf("cols = %d", len(row))
		}
		for _, q := range row {
			if q < 0 || q > 1 {
				t.Fatalf("observation %v outside [0,1]", q)
			}
		}
	}
}

func TestCollectStatistics(t *testing.T) {
	mkt, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 0
	for round := 0; round < 5000; round++ {
		for _, q := range mkt.Collect(round, 1) {
			sum += q
			n++
		}
	}
	if mean := sum / float64(n); math.Abs(mean-0.6) > 0.01 {
		t.Errorf("seller 1 observed mean %v, want ≈0.6", mean)
	}
}

func TestSettleBooksPayments(t *testing.T) {
	mkt, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	out := &game.Outcome{
		PJ:       10,
		P:        2,
		Taus:     []float64{1.5, 0.5},
		TotalTau: 2,
	}
	if err := mkt.Settle(3, []int{0, 2}, out); err != nil {
		t.Fatal(err)
	}
	l := mkt.Ledger()
	if got := l.Balance(ledger.Consumer); got != -20 { // p^J·Στ = 10·2
		t.Errorf("consumer balance %v", got)
	}
	if got := l.Balance(ledger.Seller(0)); got != 3 { // p·τ_0 = 2·1.5
		t.Errorf("seller 0 balance %v", got)
	}
	if got := l.Balance(ledger.Seller(2)); got != 1 {
		t.Errorf("seller 2 balance %v", got)
	}
	if got := l.Balance(ledger.Platform); got != 16 { // the round's commission
		t.Errorf("platform balance %v", got)
	}
	if imb := l.TotalImbalance(); math.Abs(imb) > 1e-12 {
		t.Errorf("imbalance %v", imb)
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := testConfig(t)
	mkt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mkt.Config().M() != 3 {
		t.Errorf("M = %d", mkt.Config().M())
	}
	if mkt.Config().Job.Description != "test job" {
		t.Error("job description lost")
	}
}

func TestDeparted(t *testing.T) {
	cfg := testConfig(t)
	cfg.Departures = []int{0, 5, 1}
	mkt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mkt.Departed(0, 100) {
		t.Error("zero departure means never")
	}
	if mkt.Departed(1, 4) || !mkt.Departed(1, 5) || !mkt.Departed(1, 6) {
		t.Error("departure boundary wrong")
	}
	if !mkt.Departed(2, 1) {
		t.Error("seller 2 departs at round 1")
	}
	cfg.Departures = []int{1}
	if err := cfg.Validate(); err == nil {
		t.Error("wrong-length departures should fail validation")
	}
}

func TestCollectReadings(t *testing.T) {
	cfg := testConfig(t)
	sensor, err := aggregate.NewSensor(0.01, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Data = &DataLayer{
		Signal:     aggregate.ConstSignal{Levels: []float64{10, 20, 30, 40}},
		Sensor:     sensor,
		Aggregator: aggregate.WeightedMean{},
	}
	mkt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	estimates := []float64{0.3, 0.6, 0.9}
	reports := mkt.CollectReadings(5, []int{1, 2}, estimates)
	if len(reports) != 4 { // one report per PoI
		t.Fatalf("reports %d", len(reports))
	}
	for l, r := range reports {
		if r.PoI != l || r.Readings != 2 {
			t.Fatalf("report %d: %+v", l, r)
		}
		truth := []float64{10, 20, 30, 40}[l]
		if r.Truth != truth {
			t.Errorf("truth %v, want %v", r.Truth, truth)
		}
		// With sd ≤ 0.5 the two-reading estimate stays near the truth.
		if r.Error() > 2 {
			t.Errorf("PoI %d error %v too large", l, r.Error())
		}
	}
	if got := aggregate.RMSE(reports); math.IsNaN(got) || got > 2 {
		t.Errorf("RMSE = %v", got)
	}
	// Without a data layer, CollectReadings returns nil.
	plain, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if plain.CollectReadings(1, []int{0}, estimates) != nil {
		t.Error("no data layer should return nil")
	}
}

func TestDataLayerValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Data = &DataLayer{} // incomplete
	if err := cfg.Validate(); err == nil {
		t.Fatal("incomplete data layer should fail validation")
	}
}
