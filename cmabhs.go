package cmabhs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cmabhs/internal/aggregate"
	"cmabhs/internal/bandit"
	"cmabhs/internal/core"
	"cmabhs/internal/economics"
	"cmabhs/internal/faults"
	"cmabhs/internal/game"
	"cmabhs/internal/market"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

// Seller describes one candidate data seller: its private quadratic
// cost C(τ) = (a·τ² + b·τ)·q̄ and its true expected sensing quality.
// The quality drives the simulated observations and the regret
// accounting; the mechanism itself never reads it.
type Seller struct {
	CostQuadratic   float64 // a > 0
	CostLinear      float64 // b ≥ 0
	ExpectedQuality float64 // q ∈ [0, 1]
}

// Policy selects the bandit algorithm driving seller selection.
type Policy string

// Supported policies. PolicyCMABHS is the paper's mechanism; the
// rest are the baselines and extensions of the evaluation.
const (
	PolicyCMABHS        Policy = "cmab-hs"       // extended-UCB greedy (the paper's mechanism)
	PolicyOptimal       Policy = "optimal"       // oracle knowing the true qualities
	PolicyEpsilonFirst  Policy = "epsilon-first" // explore first ε·N rounds, then greedy
	PolicyEpsilonGreedy Policy = "epsilon-greedy"
	PolicyRandom        Policy = "random"
	PolicyThompson      Policy = "thompson"
	PolicyUCB1          Policy = "ucb1"   // classic UCB1 index (ablation)
	PolicySlidingWindow Policy = "sw-ucb" // windowed UCB for drifting qualities
	PolicyDiscounted    Policy = "d-ucb"  // discounted UCB for drifting qualities
)

// Drift makes the sellers' expected qualities non-stationary:
// seller i's expectation oscillates around its configured level with
// the given amplitude and period (in rounds), clamped to [0, 1].
// With drift enabled, Result.DynamicRegret measures regret against
// the per-round oracle.
type Drift struct {
	Amplitude float64 // peak deviation from the base quality, in [0, 1]
	Period    float64 // rounds per oscillation cycle (> 0)
}

// FaultConfig turns on the composable fault-injection layer. Each
// sub-model activates independently; the zero value injects nothing
// and is bit-identical to running without a fault layer. All fault
// randomness derives from Seed (default: Config.Seed XOR a constant),
// on streams separate from the market's, so enabling one model never
// perturbs another — or the clean simulation.
type FaultConfig struct {
	// Seed drives every fault stream. 0 derives it from Config.Seed.
	Seed int64

	// Channel is a per-seller Gilbert–Elliott delivery channel:
	// bursty, correlated outages. The legacy i.i.d. DeliveryRate is
	// the special case GoodToBad = BadToGood = 0, LossGood = 1−rate
	// (and the two may not be combined).
	Channel ChannelFaults
	// Churn draws each seller's permanent departure round from an
	// exponential lifetime (Poisson churn over the population). It
	// composes with the scripted Departures list: the earliest
	// departure wins.
	Churn ChurnFaults
	// Straggler injects collection latency; a delivery that blows
	// the round deadline degrades into a miss (no data, no pay).
	Straggler StragglerFaults
	// Byzantine corrupts a fixed seller subset's quality reports.
	Byzantine ByzantineFaults
}

// ChannelFaults parameterizes the Gilbert–Elliott delivery channel.
type ChannelFaults struct {
	GoodToBad float64 // P(good→bad) per delivery check
	BadToGood float64 // P(bad→good) per delivery check
	LossGood  float64 // delivery loss probability in the good state
	LossBad   float64 // delivery loss probability in the bad state
}

// ChurnFaults parameterizes renewal (Poisson) seller churn.
type ChurnFaults struct {
	Rate     float64 // per-round departure hazard λ (0: no churn)
	MinRound int     // earliest allowed departure round (default 2)
}

// StragglerFaults parameterizes collection-latency injection.
type StragglerFaults struct {
	Prob      float64 // probability a delivery straggles
	MeanDelay float64 // mean extra latency of a straggler
	Deadline  float64 // tolerated latency (0: the job's RoundDuration)
}

// ByzantineFaults parameterizes quality-report corruption.
type ByzantineFaults struct {
	Fraction  float64 // Byzantine share of the population (ignored if Sellers set)
	Sellers   []int   // explicit Byzantine seller ids
	Mode      string  // "inflate" (default) or "random"
	Inflation float64 // bias added in inflate mode (default 0.3)
}

// Solver selects how each round's Stackelberg game is solved.
type Solver string

// Supported solvers.
const (
	SolverClosedForm Solver = "closed-form" // the paper's Theorems 14–16 (default)
	SolverExact      Solver = "exact"       // exact over the kinked supply curve
	SolverNumeric    Solver = "numeric"     // grid/golden-section reference (slow)
)

// Config parameterizes a full CDT market simulation. Zero values get
// the paper's Table II defaults where one exists.
type Config struct {
	Sellers []Seller // the M candidate sellers
	K       int      // sellers selected per round
	PoIs    int      // L points of interest (default 10)
	Rounds  int      // N trading rounds
	// RoundDuration is T, the cap on each seller's per-round sensing
	// time; 0 leaves sensing times uncapped (the paper's regime).
	RoundDuration float64

	Theta float64 // platform aggregation cost θ (default 0.1)
	// Lambda is the platform's linear aggregation cost λ. A zero
	// value means "use the paper default of 1"; the model itself
	// allows λ = 0, which this API cannot express (use a tiny
	// positive value instead).
	Lambda float64
	Omega  float64 // consumer valuation ω (default 1000)

	PJMin, PJMax float64 // consumer price bounds (default [0, 100])
	PMin, PMax   float64 // platform price bounds (default [0, 5])

	ObservationSD float64 // truncated-Gaussian noise σ (default 0.1)
	Seed          int64   // randomness seed (policies + observations)

	Policy  Policy  // default PolicyCMABHS
	Epsilon float64 // parameter for the ε-policies (default 0.1)
	Window  int     // window for PolicySlidingWindow (default 500)
	Gamma   float64 // discount for PolicyDiscounted (default 0.995)
	Solver  Solver  // default SolverClosedForm

	// QualityDrift, if non-nil, makes expected qualities oscillate
	// (non-stationary market). See Drift.
	QualityDrift *Drift

	Tau0        float64 // initial-exploration sensing time (default 1)
	ColdStart   bool    // skip the initial full-exploration round (ablation)
	KeepRounds  bool    // retain every per-round record in the result
	Checkpoints []int   // rounds at which to snapshot cumulative metrics

	// Budget caps the consumer's cumulative spend; the run stops
	// after the round in which it is reached. 0 means unlimited.
	Budget float64

	// Departures[i] = r makes seller i permanently leave the market
	// at the start of round r (seller churn / failure injection).
	// Empty or zero entries mean no departure.
	Departures []int

	// DeliveryRate makes selected sellers fail to deliver a round's
	// data with probability 1−rate (transient failures: no data, no
	// pay, no cost). 0 means always deliver; otherwise must lie in
	// (0, 1].
	DeliveryRate float64

	// Faults, if non-nil, enables the composable fault-injection
	// layer (bursty delivery channels, Poisson churn, stragglers,
	// Byzantine corruption). See FaultConfig. A zero-valued
	// FaultConfig injects nothing.
	Faults *FaultConfig

	// CollectData enables the raw-data layer: sellers return noisy
	// readings of a per-PoI ground-truth signal (noise set by their
	// true quality), the platform aggregates them weighted by the
	// estimated qualities, and Result.AggregationRMSE reports the
	// mean statistical error delivered to the consumer.
	CollectData bool

	// Observer, if non-nil, receives one RoundEvent after every
	// completed trading round. Observers are strictly passive —
	// attaching one is bit-identical to not attaching one — and run
	// synchronously on the simulation goroutine. Being code, the
	// observer never travels in a Save snapshot; reattach with
	// Session.Observe after ResumeSession.
	Observer RoundObserver `json:"-"`
}

// RoundObserver is a per-round telemetry hook. See Config.Observer
// and RoundEvent.
type RoundObserver func(*RoundEvent)

// RoundEvent is the per-round observation delivered to a
// RoundObserver: the round just played plus the learning-dynamics
// context no single record carries. The event and its slices are
// borrowed — valid only during the call, copy to retain.
type RoundEvent struct {
	// Round is the public record of the round just played: selection,
	// equilibrium prices p^J and p, sensing times, and profits.
	Round Round

	// UCB holds each seller's extended-UCB index (Eq. 19) as it stood
	// when the round's selection was made, indexed by seller id;
	// departed sellers hold NaN. Nil for the initial full-exploration
	// round, when no estimates exist yet.
	UCB []float64

	// FailedSellers lists the sellers that were selected but delivered
	// no data this round — the round's fault events (delivery loss,
	// stragglers past the deadline). Empty on clean rounds.
	FailedSellers []int

	// Regret and ExpectedRevenue are cumulative after this round,
	// regret measured against the offline optimal selection (Eq. 34).
	Regret          float64
	ExpectedRevenue float64

	// ConsumerSpend is the cumulative reward paid out after this
	// round — what Config.Budget is checked against.
	ConsumerSpend float64
}

// RandomConfig draws an M-seller configuration from the paper's
// Table II parameter ranges: a∈[0.1,0.5], b∈[0.1,1], q∈[0,1].
func RandomConfig(m, k, rounds int, seed int64) Config {
	src := rng.New(seed)
	cfg := Config{K: k, Rounds: rounds, Seed: seed}
	for i := 0; i < m; i++ {
		cfg.Sellers = append(cfg.Sellers, Seller{
			CostQuadratic:   src.Uniform(0.1, 0.5),
			CostLinear:      src.Uniform(0.1, 1),
			ExpectedQuality: src.Float64(),
		})
	}
	return cfg
}

// withDefaults fills zero values with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.PoIs == 0 {
		c.PoIs = 10
	}
	if c.Theta == 0 {
		c.Theta = 0.1
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Omega == 0 {
		c.Omega = 1000
	}
	if c.PJMax == 0 {
		c.PJMax = 100
	}
	if c.PMax == 0 {
		c.PMax = 5
	}
	if c.ObservationSD == 0 {
		c.ObservationSD = 0.1
	}
	if c.Policy == "" {
		c.Policy = PolicyCMABHS
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Solver == "" {
		c.Solver = SolverClosedForm
	}
	if c.Window == 0 {
		c.Window = 500
	}
	if c.Gamma == 0 {
		c.Gamma = 0.995
	}
	return c
}

// faultConfig maps the public FaultConfig to the internal fault
// layer. A nil or zero-valued public config maps to nil: no injector
// is built, keeping the clean path bit-identical.
func (c Config) faultConfig() *faults.Config {
	if c.Faults == nil {
		return nil
	}
	f := c.Faults
	seed := f.Seed
	if seed == 0 {
		seed = c.Seed ^ 0xfa17
	}
	fc := &faults.Config{
		Seed: seed,
		Delivery: faults.DeliveryConfig{
			GoodToBad: f.Channel.GoodToBad,
			BadToGood: f.Channel.BadToGood,
			LossGood:  f.Channel.LossGood,
			LossBad:   f.Channel.LossBad,
		},
		Churn: faults.ChurnConfig{Rate: f.Churn.Rate, MinRound: f.Churn.MinRound},
		Straggler: faults.StragglerConfig{
			Prob:      f.Straggler.Prob,
			MeanDelay: f.Straggler.MeanDelay,
			Deadline:  f.Straggler.Deadline,
		},
		Corruption: faults.CorruptionConfig{
			Fraction:  f.Byzantine.Fraction,
			Sellers:   append([]int(nil), f.Byzantine.Sellers...),
			Mode:      f.Byzantine.Mode,
			Inflation: f.Byzantine.Inflation,
		},
	}
	if fc.Zero() {
		return nil
	}
	return fc
}

// build assembles the internal configuration and policy.
func (c Config) build() (*core.Config, bandit.Policy, error) {
	c = c.withDefaults()
	if len(c.Sellers) == 0 {
		return nil, nil, errors.New("cmabhs: no sellers configured")
	}
	means := make([]float64, len(c.Sellers))
	specs := make([]market.SellerSpec, len(c.Sellers))
	for i, s := range c.Sellers {
		means[i] = s.ExpectedQuality
		specs[i] = market.SellerSpec{Cost: economics.SellerCost{A: s.CostQuadratic, B: s.CostLinear}}
	}
	src := rng.New(c.Seed)
	var model quality.Model
	var err error
	if c.QualityDrift != nil {
		amps := make([]float64, len(means))
		for i := range amps {
			amps[i] = c.QualityDrift.Amplitude
		}
		model, err = quality.NewDrifting(means, amps, c.QualityDrift.Period, c.ObservationSD, src.Split(0x0b5))
	} else {
		model, err = quality.NewTruncGaussian(means, c.ObservationSD, src.Split(0x0b5))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("cmabhs: %w", err)
	}
	var solver core.Solver
	switch c.Solver {
	case SolverClosedForm:
		solver = core.ClosedForm
	case SolverExact:
		solver = core.Exact
	case SolverNumeric:
		solver = core.Numeric
	default:
		return nil, nil, fmt.Errorf("cmabhs: unknown solver %q", c.Solver)
	}
	cfg := &core.Config{
		Market: market.Config{
			Job:          market.Job{L: c.PoIs, N: c.Rounds, T: c.RoundDuration},
			Sellers:      specs,
			Platform:     economics.PlatformCost{Theta: c.Theta, Lambda: c.Lambda},
			Consumer:     economics.Valuation{Omega: c.Omega},
			PJBounds:     game.Bounds{Min: c.PJMin, Max: c.PJMax},
			PBounds:      game.Bounds{Min: c.PMin, Max: c.PMax},
			Quality:      model,
			Departures:   append([]int(nil), c.Departures...),
			DeliveryRate: c.DeliveryRate,
			DeliverySeed: c.Seed ^ 0x7e57,
			Faults:       c.faultConfig(),
		},
		K:           c.K,
		Tau0:        c.Tau0,
		Solver:      solver,
		Budget:      c.Budget,
		ColdStart:   c.ColdStart,
		KeepRounds:  c.KeepRounds,
		Checkpoints: append([]int(nil), c.Checkpoints...),
		Observer:    coreObserver(c.Observer),
	}
	if c.CollectData {
		sensor, err := aggregate.NewSensor(0.05, 2, src.Split(0xda7a))
		if err != nil {
			return nil, nil, fmt.Errorf("cmabhs: %w", err)
		}
		cfg.Market.Data = &market.DataLayer{
			Signal:     aggregate.SineSignal{Base: 50, Amp: 10, Period: 288},
			Sensor:     sensor,
			Aggregator: aggregate.WeightedMean{},
		}
	}
	var policy bandit.Policy
	switch c.Policy {
	case PolicyCMABHS:
		// One linear Eq. 19 scan per round into reused buffers, so a
		// warm round allocates nothing (DESIGN §14).
		policy = &bandit.UCBGreedy{}
	case PolicyOptimal:
		policy = bandit.NewOracle(means)
	case PolicyEpsilonFirst:
		policy = bandit.NewEpsilonFirst(c.Epsilon, c.Rounds, src.Split(0xe0))
	case PolicyEpsilonGreedy:
		policy = bandit.NewEpsilonGreedy(c.Epsilon, src.Split(0xe9))
	case PolicyRandom:
		policy = bandit.NewRandom(src.Split(0xaa))
	case PolicyThompson:
		policy = bandit.NewThompson(src.Split(0x70))
	case PolicyUCB1:
		policy = bandit.UCB1Greedy{}
	case PolicySlidingWindow:
		if c.Window <= 0 {
			return nil, nil, fmt.Errorf("cmabhs: window must be positive, got %d", c.Window)
		}
		policy = bandit.NewSlidingWindowUCB(c.Window)
	case PolicyDiscounted:
		if c.Gamma <= 0 || c.Gamma >= 1 {
			return nil, nil, fmt.Errorf("cmabhs: gamma must be in (0, 1), got %v", c.Gamma)
		}
		policy = bandit.NewDiscountedUCB(c.Gamma)
	default:
		return nil, nil, fmt.Errorf("cmabhs: unknown policy %q", c.Policy)
	}
	return cfg, policy, nil
}

// Round is one trading round's public record.
type Round struct {
	Round          int       // 1-based index
	Selected       []int     // selected seller ids
	ConsumerPrice  float64   // p^J
	PlatformPrice  float64   // p
	SensingTimes   []float64 // τ_i, aligned with Selected
	TotalTime      float64   // Στ_i
	ConsumerProfit float64
	PlatformProfit float64
	SellerProfits  []float64 // aligned with Selected
	NoTrade        bool
	Realized       float64 // Σ observed qualities this round
	// AggregationRMSE is this round's statistics error vs ground
	// truth (0 unless Config.CollectData is set).
	AggregationRMSE float64
}

// Checkpoint is a cumulative-metric snapshot after a given round.
type Checkpoint struct {
	Round           int
	RealizedRevenue float64
	ExpectedRevenue float64
	Regret          float64
	ConsumerProfit  float64 // cumulative
	PlatformProfit  float64 // cumulative
	SellerProfit    float64 // cumulative, all sellers
}

// Result summarizes a full simulation.
type Result struct {
	Policy string

	RealizedRevenue float64 // Σ observed qualities of all selections (Eq. 1)
	ExpectedRevenue float64 // Σ expected qualities of all selections
	Regret          float64 // cumulative pseudo-regret vs. the optimal selection
	RegretBound     float64 // the Theorem 19 bound at this horizon (+Inf when Δ_min = 0, e.g. K == M)

	ConsumerProfit float64 // cumulative PoC
	PlatformProfit float64 // cumulative PoP
	SellerProfit   float64 // cumulative PoS over all sellers
	Rounds         int     // rounds played

	ConsumerSpend   float64 // total rewards the consumer paid out
	AggregationRMSE float64 // mean per-round statistics error (NaN unless CollectData)
	DynamicRegret   float64 // regret vs the per-round oracle (NaN unless QualityDrift)
	Stopped         string  // non-empty if the run halted early (budget / churn)

	Estimates       []float64    // final quality estimates q̄_i
	PerSellerProfit []float64    // cumulative profit per seller over the run
	PerRound        []Round      // populated with Config.KeepRounds
	Checkpoints     []Checkpoint // populated with Config.Checkpoints
}

// coreObserver adapts a public RoundObserver to the internal hook.
// A nil observer maps to nil, keeping the unobserved hot path a
// single nil check. The adapter fills one RoundEvent in place every
// round: the event is borrowed, so observers never see it outlive
// their call.
func coreObserver(obs RoundObserver) core.RoundObserver {
	if obs == nil {
		return nil
	}
	pub := new(RoundEvent)
	return func(ev *core.RoundEvent) {
		*pub = RoundEvent{
			Round:           publicRound(ev.Record),
			UCB:             ev.UCB,
			FailedSellers:   ev.Failed,
			Regret:          ev.Regret,
			ExpectedRevenue: ev.ExpectedRevenue,
			ConsumerSpend:   ev.ConsumerSpend,
		}
		obs(pub)
	}
}

// publicRound converts an internal round record (NaN-bearing fields
// sanitized for JSON users). The Round SHARES the record's slices —
// right for the borrowed paths (observer events, AdvanceEach); use
// owned when the caller keeps the result.
func publicRound(r *core.RoundRecord) Round {
	agg := r.AggRMSE
	if math.IsNaN(agg) {
		agg = 0
	}
	return Round{
		Round:           r.Round,
		Selected:        r.Selected,
		ConsumerPrice:   r.PJ,
		PlatformPrice:   r.P,
		SensingTimes:    r.Taus,
		TotalTime:       r.TotalTau,
		ConsumerProfit:  r.PoC,
		PlatformProfit:  r.PoP,
		SellerProfits:   r.SellerProfits,
		NoTrade:         r.NoTrade,
		Realized:        r.Realized,
		AggregationRMSE: agg,
	}
}

// owned returns a copy of r with its own slice storage, detached from
// the mechanism's pooled per-round buffers — what public callers that
// retain records receive.
func (r *Round) owned() Round {
	c := *r
	c.Selected = append([]int(nil), r.Selected...)
	c.SensingTimes = append([]float64(nil), r.SensingTimes...)
	c.SellerProfits = append([]float64(nil), r.SellerProfits...)
	return c
}

// AvgConsumerProfit returns the consumer's average per-round profit,
// 0 before any round has been played.
func (r *Result) AvgConsumerProfit() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return r.ConsumerProfit / float64(r.Rounds)
}

// AvgPlatformProfit returns the platform's average per-round profit,
// 0 before any round has been played.
func (r *Result) AvgPlatformProfit() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return r.PlatformProfit / float64(r.Rounds)
}

// AvgSellerProfit returns the average per-round profit of one
// selected seller, given K sellers are selected per round. 0 before
// any round has been played.
func (r *Result) AvgSellerProfit(k int) float64 {
	if r.Rounds == 0 || k == 0 {
		return 0
	}
	return r.SellerProfit / float64(r.Rounds) / float64(k)
}

// StoppedCanceled is the Result.Stopped / Advance.Stopped value
// reported when a context cancels execution between trading rounds.
const StoppedCanceled = core.StoppedCanceled

// Run executes the configured simulation.
func Run(c Config) (*Result, error) {
	return RunContext(context.Background(), c)
}

// RunContext is Run with cancellation: the mechanism checks ctx at
// every round boundary. When ctx is done the PARTIAL result — all
// rounds traded so far, with Result.Stopped set to StoppedCanceled —
// is returned with a nil error, so interrupted simulations can still
// flush what they learned. Real failures return a non-nil error.
func RunContext(ctx context.Context, c Config) (*Result, error) {
	cfg, policy, err := c.build()
	if err != nil {
		return nil, err
	}
	res, err := core.RunContext(ctx, cfg, policy)
	if err != nil {
		return nil, fmt.Errorf("cmabhs: %w", err)
	}
	return publicResult(res), nil
}

// publicResult converts an internal result to the public shape.
func publicResult(res *core.Result) *Result {
	out := &Result{
		Policy:          res.Policy,
		RealizedRevenue: res.RealizedRevenue,
		ExpectedRevenue: res.ExpectedRevenue,
		Regret:          res.Regret,
		RegretBound:     res.RegretBound,
		ConsumerProfit:  res.CumPoC,
		PlatformProfit:  res.CumPoP,
		SellerProfit:    res.CumPoS,
		Rounds:          res.RoundsPlayed,
		ConsumerSpend:   res.ConsumerSpend,
		AggregationRMSE: res.MeanAggRMSE,
		DynamicRegret:   res.DynamicRegret,
		Stopped:         res.Stopped,
		Estimates:       res.Estimates,
		PerSellerProfit: res.SellerTotals,
	}
	for _, r := range res.Rounds {
		out.PerRound = append(out.PerRound, publicRound(&r))
	}
	for _, cp := range res.Checkpoints {
		out.Checkpoints = append(out.Checkpoints, Checkpoint{
			Round:           cp.Round,
			RealizedRevenue: cp.RealizedRevenue,
			ExpectedRevenue: cp.ExpectedRevenue,
			Regret:          cp.Regret,
			ConsumerProfit:  cp.CumPoC,
			PlatformProfit:  cp.CumPoP,
			SellerProfit:    cp.CumPoS,
		})
	}
	return out
}
