// Package core implements the paper's primary contribution: the
// CMAB-HS data trading mechanism (Algorithm 1). Each run couples the
// extended-UCB combinatorial bandit (internal/bandit) with the
// three-stage hierarchical Stackelberg game (internal/game) over a
// CDT market (internal/market):
//
//	round 1:   select ALL sellers at sensing time τ⁰ and price p_max
//	           (initial exploration), pay the platform the smallest
//	           price keeping its profit non-negative, then learn the
//	           first quality estimates;
//	round t≥2: sort sellers by UCB (Eq. 19), select the top K, play
//	           the HS game for ⟨p^J*, p*, τ*⟩ (Theorems 14–16),
//	           collect data at all L PoIs, settle payments, update
//	           estimates (Eqs. 17–18).
//
// Baseline mechanisms (optimal / ε-first / random / …) run through
// the same loop with a different bandit policy, which is exactly how
// the paper's comparison is defined.
//
// The loop is exposed two ways: Run/RunContext execute a whole
// configured horizon, and Mechanism steps round by round (what the
// broker service uses to advance a live trading job incrementally).
// Both check context cancellation at round boundaries — a cancelled
// run keeps its partial progress and reports StoppedCanceled rather
// than discarding the rounds already traded.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"cmabhs/internal/aggregate"
	"cmabhs/internal/bandit"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/market"
	"cmabhs/internal/numutil"
	"cmabhs/internal/quality"
)

// Solver selects how the per-round Stackelberg game is solved.
type Solver int

const (
	// ClosedForm uses the paper's closed forms (Theorems 14–16) on
	// the full selected set, clamping negative sensing times to zero.
	ClosedForm Solver = iota
	// Exact uses the kinked-supply-curve solver (game.SolveExact),
	// which stays an exact equilibrium when sellers opt out.
	Exact
	// Numeric uses the grid/golden-section reference solver — slow,
	// for ablations only.
	Numeric
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case ClosedForm:
		return "closed-form"
	case Exact:
		return "exact"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Config parameterizes one mechanism run.
type Config struct {
	Market market.Config
	K      int     // sellers selected per round
	Tau0   float64 // sensing time of the initial exploration round (default 1)
	MinQ   float64 // floor for estimates entering the game (default 1e-6)
	Solver Solver  // game solver (default ClosedForm, as in the paper)

	// Budget caps the consumer's cumulative spend (the total rewards
	// paid out, p^J·Στ summed over rounds). The run stops after the
	// round in which the budget is reached; 0 means unlimited. This
	// implements the budget-feasible variant common in the related
	// work ([35]–[37] in the paper).
	Budget float64

	// ColdStart skips Algorithm 1's initial full-exploration round:
	// round 1 is played like any other, with the policy selecting K
	// sellers off no data (UCB then explores via its +Inf indices).
	// Exists for the initial-exploration ablation; the paper's
	// mechanism keeps this false.
	ColdStart bool

	KeepRounds  bool          // retain every RoundRecord in the result
	Checkpoints []int         // rounds at which to snapshot cumulative metrics (ascending)
	Observer    RoundObserver // optional per-round hook; see RoundObserver
}

// RoundObserver receives one RoundEvent after every completed trading
// round. Observers are strictly passive: attaching one never changes
// the mechanism's decisions, accounting, random streams, or snapshots
// — a run with an observer is bit-identical to the same run without
// one (the chaos harness asserts this). The event and every slice it
// references are BORROWED: valid only for the duration of the call,
// to be copied if retained. Observers run synchronously on the
// mechanism's goroutine, so a slow observer slows the run — ship data
// out through a channel or atomic sink if that matters.
type RoundObserver func(*RoundEvent)

// RoundEvent is the per-round observation delivered to a
// RoundObserver: the full round record (selection, equilibrium prices,
// sensing times, profits) plus the learning-dynamics context that is
// not part of any one record — the bandit indices that drove the
// selection, cumulative regret against the offline oracle, and the
// round's fault events.
type RoundEvent struct {
	Round  int          // 1-based round index, == Record.Round
	Record *RoundRecord // the round just played (borrowed)

	// UCB holds each seller's extended-UCB index (Eq. 19) as it stood
	// when this round's selection was made — the exact scores a
	// UCB-greedy policy ranked, and a diagnostic for every other
	// policy. Indexed by seller id; departed sellers hold NaN. Nil for
	// the initial full-exploration round (no estimates exist yet).
	UCB []float64

	// Failed lists the sellers that were selected but delivered no
	// data this round — the per-round fault events (channel loss,
	// straggler past the deadline). Empty on clean rounds.
	Failed []int

	// Regret and ExpectedRevenue are the cumulative learning metrics
	// after this round (regret vs the offline optimal selection).
	Regret          float64
	ExpectedRevenue float64

	// ConsumerSpend is the cumulative reward paid out after this
	// round — the budget-tracking view.
	ConsumerSpend float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Market.Validate(); err != nil {
		return err
	}
	if c.K <= 0 || c.K > c.Market.M() {
		return fmt.Errorf("core: K=%d with M=%d sellers", c.K, c.Market.M())
	}
	if !(c.Tau0 >= 0) || c.Tau0 > economics.MaxParam {
		return fmt.Errorf("core: Tau0 %v outside [0, %g]", c.Tau0, economics.MaxParam)
	}
	for i := 1; i < len(c.Checkpoints); i++ {
		if c.Checkpoints[i] <= c.Checkpoints[i-1] {
			return errors.New("core: checkpoints must be strictly ascending")
		}
	}
	return nil
}

func (c *Config) tau0() float64 {
	if c.Tau0 == 0 {
		return 1
	}
	return c.Tau0
}

func (c *Config) minQ() float64 {
	if c.MinQ == 0 {
		return 1e-6
	}
	return c.MinQ
}

// RoundRecord captures everything that happened in one trading round.
//
// Records returned by Step / handed to AdvanceN callbacks and
// RoundObservers are BORROWED: the mechanism pools one record (and the
// slices it references) and overwrites it next round. Callers that
// retain a record across rounds must Clone it.
type RoundRecord struct {
	Round         int       // 1-based round index
	Selected      []int     // seller ids selected this round
	PJ, P         float64   // strategies of consumer and platform
	Taus          []float64 // sensing times, aligned with Selected
	TotalTau      float64   // Σ τ_i
	PoC, PoP      float64   // profits of consumer and platform
	SellerProfits []float64 // profits of the selected sellers
	NoTrade       bool      // the game admitted no profitable trade
	Realized      float64   // Σ_i Σ_l q_{i,l}^t — this round's realized revenue
	AggRMSE       float64   // aggregation error vs ground truth (NaN without a data layer)
}

// Clone returns a deep copy of the record, detaching it from the
// mechanism's pooled per-round storage.
func (r *RoundRecord) Clone() RoundRecord {
	c := *r
	c.Selected = append([]int(nil), r.Selected...)
	c.Taus = append([]float64(nil), r.Taus...)
	c.SellerProfits = append([]float64(nil), r.SellerProfits...)
	return c
}

// Checkpoint is a snapshot of the cumulative metrics after a round.
type Checkpoint struct {
	Round           int
	RealizedRevenue float64 // cumulative Σ observed qualities (Eq. 1)
	ExpectedRevenue float64 // cumulative Σ expected qualities of selections
	Regret          float64 // cumulative pseudo-regret (Eq. 34)
	CumPoC          float64
	CumPoP          float64
	CumPoS          float64 // summed over all selected sellers
}

// Result is the outcome of a full mechanism run (or of a partial run,
// when snapshotted from a live Mechanism).
type Result struct {
	Policy      string
	Rounds      []RoundRecord // populated only with Config.KeepRounds
	Checkpoints []Checkpoint

	RealizedRevenue float64
	ExpectedRevenue float64
	Regret          float64
	RegretBound     float64 // Theorem 19 bound at the run's horizon

	CumPoC, CumPoP, CumPoS float64
	RoundsPlayed           int

	ConsumerSpend float64 // total rewards paid by the consumer
	MeanAggRMSE   float64 // mean per-round aggregation RMSE (NaN without a data layer)
	DynamicRegret float64 // regret vs the per-round oracle (NaN for stationary quality models)
	Stopped       string  // non-empty if the run halted early ("budget exhausted", "no active sellers")

	Estimates    []float64 // final q̄_i per seller
	SellerTotals []float64 // cumulative profit per seller over the run
	Tracker      *bandit.RegretTracker
}

// AvgPoC returns the consumer's average per-round profit, 0 before
// any round has been played.
func (r *Result) AvgPoC() float64 {
	if r.RoundsPlayed == 0 {
		return 0
	}
	return r.CumPoC / float64(r.RoundsPlayed)
}

// AvgPoP returns the platform's average per-round profit, 0 before
// any round has been played.
func (r *Result) AvgPoP() float64 {
	if r.RoundsPlayed == 0 {
		return 0
	}
	return r.CumPoP / float64(r.RoundsPlayed)
}

// AvgPoSPerSeller returns the average per-round profit of one
// selected seller (the paper's Fig. 12(c) metric), given K sellers
// are selected per round. 0 before any round has been played.
func (r *Result) AvgPoSPerSeller(k int) float64 {
	if r.RoundsPlayed == 0 || k == 0 {
		return 0
	}
	return r.CumPoS / float64(r.RoundsPlayed) / float64(k)
}

// Mechanism is a live, stepwise CMAB-HS run: NewMechanism validates
// and initializes it, each Step plays one trading round, and Result
// snapshots the cumulative metrics at any point. Not safe for
// concurrent use.
type Mechanism struct {
	cfg     *Config
	policy  bandit.Policy
	mkt     *market.Market
	arms    *bandit.Arms
	tracker *bandit.RegretTracker

	res                                             *Result
	realized, cumPoC, cumPoP, cumPoS, spend, aggSum numutil.KahanSum
	aggRounds                                       int
	nextCkpt                                        int

	sellerTotals []float64 // cumulative profit per seller

	feedback bandit.RoundFeedback  // non-nil when the policy learns per round
	dynModel quality.NonStationary // non-nil for drifting-quality markets
	dynTrack *bandit.DynamicRegret // dynamic-oracle regret accumulator
	dynNow   []float64             // scratch: expectations at the current round

	// Observer scratch, populated per round only when an observer is
	// attached. Reads only — never feeds back into the mechanism.
	obsUCB    []float64 // selection-time UCB indices, indexed by seller
	obsFailed []int     // sellers selected this round that failed to deliver

	// Hot-path pools, overwritten every round: Step hands out &rec as a
	// borrowed record, the closed-form game solves into out, and the
	// remaining scratch keeps a steady-state round allocation-free.
	rec        RoundRecord
	params     game.Params
	out        game.Outcome
	evt        RoundEvent
	means      []float64 // estimate snapshot handed to the market
	delivered  []int     // sellers that delivered this round
	tauScratch []float64 // sensing times, failed sellers' zeroed by collect

	// Churn schedule: departure rounds are fixed at construction, so
	// round advances pop from this sorted list instead of scanning all
	// M sellers every round.
	churnSched []churnEvent
	churnNext  int

	next    int // next round to play, 1-based
	stopped string
}

// churnEvent schedules one seller's permanent departure.
type churnEvent struct {
	round, seller int
}

// NewMechanism builds a live run from a validated configuration and
// policy.
func NewMechanism(cfg *Config, policy bandit.Policy) (*Mechanism, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("core: nil policy")
	}
	mkt, err := market.New(cfg.Market)
	if err != nil {
		return nil, err
	}
	m := cfg.Market.M()
	expected := make([]float64, m)
	for i := range expected {
		expected[i] = cfg.Market.Quality.Expected(i)
	}
	arms := bandit.NewArms(m)
	for i := 0; i < m; i++ {
		if mkt.Departed(i, 1) {
			arms.Deactivate(i)
		}
	}
	if arms.ActiveCount() == 0 {
		return nil, errors.New("core: every seller departed before round 1")
	}
	tracker := bandit.NewRegretTracker(expected, cfg.K, cfg.Market.Job.L)
	mech := &Mechanism{
		cfg:          cfg,
		policy:       policy,
		mkt:          mkt,
		arms:         arms,
		tracker:      tracker,
		sellerTotals: make([]float64, m),
		res:          &Result{Policy: policy.Name(), Tracker: tracker},
		next:         1,
	}
	if fb, ok := policy.(bandit.RoundFeedback); ok {
		mech.feedback = fb
	}
	if dyn, ok := cfg.Market.Quality.(quality.NonStationary); ok {
		mech.dynModel = dyn
		mech.dynTrack = bandit.NewDynamicRegret(cfg.Market.Job.L)
		mech.dynNow = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		if d := mkt.DepartureRound(i); d > 0 {
			mech.churnSched = append(mech.churnSched, churnEvent{round: d, seller: i})
		}
	}
	sort.Slice(mech.churnSched, func(a, b int) bool {
		x, y := mech.churnSched[a], mech.churnSched[b]
		return x.round < y.round || (x.round == y.round && x.seller < y.seller)
	})
	// Round-1 departures were applied to the arms above; start the
	// cursor past them.
	for mech.churnNext < len(mech.churnSched) && mech.churnSched[mech.churnNext].round <= 1 {
		mech.churnNext++
	}
	return mech, nil
}

// Round returns the next round to be played (1-based).
func (m *Mechanism) Round() int { return m.next }

// Done reports whether the run has finished (horizon reached or
// halted early).
func (m *Mechanism) Done() bool {
	return m.stopped != "" || m.next > m.cfg.Market.Job.N
}

// Stopped returns the early-halt reason, if any.
func (m *Mechanism) Stopped() string { return m.stopped }

// Arms exposes the live quality estimators (read-only use).
func (m *Mechanism) Arms() *bandit.Arms { return m.arms }

// Market exposes the underlying market (ledger inspection etc.).
func (m *Mechanism) Market() *market.Market { return m.mkt }

// SetObserver attaches (or, with nil, clears) the per-round observer
// on a live mechanism. Resumed mechanisms need this: observers are
// code, not state, so they never travel in a snapshot. Takes effect
// from the next Step.
func (m *Mechanism) SetObserver(obs RoundObserver) { m.cfg.Observer = obs }

// Step plays the next trading round and returns its record. When the
// run is already done it returns (nil, nil). The returned record is
// BORROWED — overwritten by the next Step; Clone it to retain it.
func (m *Mechanism) Step() (*RoundRecord, error) {
	if m.Done() {
		return nil, nil
	}
	t := m.next
	var rec *RoundRecord
	var err error
	if t == 1 && !m.cfg.ColdStart {
		rec, err = m.exploreRound()
	} else {
		rec, err = m.gameRound(t)
	}
	if err != nil {
		return nil, err
	}
	if rec == nil { // halted (e.g. no active sellers)
		return nil, nil
	}
	m.account(rec)
	m.next = t + 1
	if m.cfg.Budget > 0 && m.spend.Sum() >= m.cfg.Budget {
		m.stopped = "budget exhausted"
	}
	return rec, nil
}

// account folds a completed round into the cumulative metrics.
func (m *Mechanism) account(rec *RoundRecord) {
	m.realized.Add(rec.Realized)
	m.cumPoC.Add(rec.PoC)
	m.cumPoP.Add(rec.PoP)
	for j, sp := range rec.SellerProfits {
		m.cumPoS.Add(sp)
		m.sellerTotals[rec.Selected[j]] += sp
	}
	if !math.IsNaN(rec.AggRMSE) {
		m.aggSum.Add(rec.AggRMSE)
		m.aggRounds++
	}
	m.res.RoundsPlayed++
	if m.cfg.Observer != nil {
		m.evt = RoundEvent{
			Round:           rec.Round,
			Record:          rec,
			UCB:             m.obsUCB,
			Failed:          m.obsFailed,
			Regret:          m.tracker.Regret(),
			ExpectedRevenue: m.tracker.ExpectedRevenue(),
			ConsumerSpend:   m.spend.Sum(),
		}
		m.cfg.Observer(&m.evt)
	}
	if m.cfg.KeepRounds {
		m.res.Rounds = append(m.res.Rounds, rec.Clone())
	}
	if m.nextCkpt < len(m.cfg.Checkpoints) && m.cfg.Checkpoints[m.nextCkpt] == rec.Round {
		m.res.Checkpoints = append(m.res.Checkpoints, Checkpoint{
			Round:           rec.Round,
			RealizedRevenue: m.realized.Sum(),
			ExpectedRevenue: m.tracker.ExpectedRevenue(),
			Regret:          m.tracker.Regret(),
			CumPoC:          m.cumPoC.Sum(),
			CumPoP:          m.cumPoP.Sum(),
			CumPoS:          m.cumPoS.Sum(),
		})
		m.nextCkpt++
	}
}

// exploreRound runs Algorithm 1's initial exploration: all active
// sellers selected, sensing time τ⁰ each, collection price p_max,
// and the smallest service price that keeps the platform's profit
// non-negative: p^J = p_max + θ·S + λ with S = M·τ⁰.
func (m *Mechanism) exploreRound() (*RoundRecord, error) {
	all := m.arms.ActiveIndices()
	tau0 := m.cfg.tau0()
	price := m.cfg.Market.PBounds.Max
	total := float64(len(all)) * tau0
	pJ := m.cfg.Market.PJBounds.Clamp(price + m.cfg.Market.Platform.Theta*total + m.cfg.Market.Platform.Lambda)

	m.obsUCB = nil // no estimates exist before the first round
	m.tauScratch = m.tauScratch[:0]
	for range all {
		m.tauScratch = append(m.tauScratch, tau0)
	}
	roundRealized := m.collect(1, all, m.tauScratch)
	// Profits are accounted post-hoc against the just-learned
	// estimates (the mechanism knows nothing before this round).
	params := m.mkt.GameParams(all, m.arms.Means(), m.cfg.minQ())
	out := params.Evaluate(pJ, price, m.tauScratch)
	if err := m.mkt.Settle(1, all, out); err != nil {
		return nil, fmt.Errorf("core: initial settle: %w", err)
	}
	rec := &RoundRecord{
		Round:         1,
		Selected:      append([]int(nil), all...),
		PJ:            pJ,
		P:             price,
		Taus:          out.Taus,
		TotalTau:      out.TotalTau,
		PoC:           out.ConsumerProfit,
		PoP:           out.PlatformProfit,
		SellerProfits: out.SellerProfits,
		Realized:      roundRealized,
		AggRMSE:       math.NaN(),
	}
	if reports := m.mkt.CollectReadings(1, m.delivered, m.arms.Means()); reports != nil {
		rec.AggRMSE = aggregate.RMSE(reports)
	}
	m.spend.Add(pJ * out.TotalTau)
	return rec, nil
}

// collect draws each selected seller's round-t observations in turn
// and folds the delivered row into the estimator, the feedback policy
// and the round's realized quality before the next seller's draw, so
// the market lends one L-row however many sellers a round serves. It
// fills m.delivered and m.obsFailed, zeroes taus[j] for every seller
// whose data does not arrive (no data, no pay, no cost), and returns
// the round's realized quality: the sum of the delivered rows.
func (m *Mechanism) collect(t int, selected []int, taus []float64) float64 {
	m.delivered = m.delivered[:0]
	m.obsFailed = m.obsFailed[:0]
	var realized float64
	for j, i := range selected {
		row := m.mkt.Collect(t, i)
		if row == nil {
			m.obsFailed = append(m.obsFailed, i)
			taus[j] = 0
			continue
		}
		m.delivered = append(m.delivered, i)
		m.arms.Update(i, row)
		if m.feedback != nil {
			m.feedback.ObserveRound(t, i, row)
		}
		realized += numutil.SumSlice(row)
	}
	return realized
}

// snapshotUCB fills obsUCB with the Eq. 19 indices this round's
// selection ranked, NaN for departed sellers. Selection only reads the
// estimator state, so the indices are the same before and after it.
// UCB-greedy already scored every arm into its buffer with the same
// round factor, so its scores are copied rather than computed a second
// time; any other policy gets one scan of its own, ln Σn taken once
// for the round. Only observed rounds pay for either.
func (m *Mechanism) snapshotUCB(k int) {
	if len(m.obsUCB) != m.cfg.Market.M() {
		m.obsUCB = make([]float64, m.cfg.Market.M())
	}
	if g, ok := m.policy.(*bandit.UCBGreedy); ok {
		copy(m.obsUCB, g.Scores())
	} else {
		factor := m.arms.UCBFactor(k)
		for i := range m.obsUCB {
			m.obsUCB[i] = m.arms.UCBAt(i, factor)
		}
	}
	if m.arms.ActiveCount() == len(m.obsUCB) {
		return
	}
	for i := range m.obsUCB {
		if !m.arms.Active(i) {
			m.obsUCB[i] = math.NaN() // UCBAt's -Inf
		}
	}
}

// gameRound plays one exploit+explore round: UCB selection (or the
// configured policy), the HS game, collection, settlement, and
// estimator updates. The returned record and everything it references
// live in the mechanism's round pool — valid until the next round.
func (m *Mechanism) gameRound(t int) (*RoundRecord, error) {
	for m.churnNext < len(m.churnSched) && m.churnSched[m.churnNext].round <= t {
		i := m.churnSched[m.churnNext].seller
		m.arms.Deactivate(i)
		m.churnNext++
	}
	k := m.cfg.K
	if a := m.arms.ActiveCount(); a < k {
		k = a
	}
	if k == 0 {
		m.stopped = "no active sellers"
		return nil, nil
	}
	selected := m.policy.SelectK(t, m.arms, k)
	if m.cfg.Observer != nil {
		m.snapshotUCB(k)
	}

	m.means = m.arms.MeansInto(m.means)
	params := m.mkt.GameParamsInto(&m.params, selected, m.means, m.cfg.minQ())
	out, err := m.solve(params)
	if err != nil {
		return nil, fmt.Errorf("core: round %d game: %w", t, err)
	}
	m.tauScratch = append(m.tauScratch[:0], out.Taus...)
	roundRealized := m.collect(t, selected, m.tauScratch)
	if len(m.obsFailed) > 0 {
		// Re-price the round at the agreed prices with the failed
		// sellers' sensing time zeroed: they deliver nothing, are
		// paid nothing, and incur no cost.
		noTrade := out.NoTrade
		out = params.EvaluateInto(out, out.PJ, out.P, m.tauScratch)
		out.NoTrade = noTrade
	}
	m.tracker.Record(selected)
	if m.dynTrack != nil {
		for i := range m.dynNow {
			if m.arms.Active(i) {
				m.dynNow[i] = m.dynModel.ExpectedAt(i, t)
			} else {
				m.dynNow[i] = -1 // departed sellers are no oracle option
			}
		}
		m.dynTrack.Record(selected, m.dynNow, k)
	}
	if err := m.mkt.Settle(t, selected, out); err != nil {
		return nil, fmt.Errorf("core: round %d settle: %w", t, err)
	}
	rec := &m.rec
	*rec = RoundRecord{
		Round:         t,
		Selected:      append(rec.Selected[:0], selected...),
		PJ:            out.PJ,
		P:             out.P,
		Taus:          out.Taus,
		TotalTau:      out.TotalTau,
		PoC:           out.ConsumerProfit,
		PoP:           out.PlatformProfit,
		SellerProfits: out.SellerProfits,
		NoTrade:       out.NoTrade,
		Realized:      roundRealized,
		AggRMSE:       math.NaN(),
	}
	m.means = m.arms.MeansInto(m.means) // post-update estimates for aggregation
	if reports := m.mkt.CollectReadings(t, m.delivered, m.means); reports != nil {
		rec.AggRMSE = aggregate.RMSE(reports)
	}
	m.spend.Add(out.TotalReward())
	return rec, nil
}

// StoppedCanceled is the stop reason reported when a context cancels
// execution between rounds. Unlike the mechanism's own early halts
// (budget, churn) it is a property of one advance, not of the run:
// the mechanism stays resumable and a later advance with a live
// context picks up at the same round.
const StoppedCanceled = "canceled"

// AdvanceN is the batched advance fast path: it plays up to max rounds
// (max <= 0 means to completion), checking ctx before every round, and
// hands each completed round's BORROWED record to fn (nil to skip).
// The record and its slices are overwritten by the next round — fn
// must copy (or encode) anything it retains, exactly like a
// RoundObserver. It returns the number of rounds played plus the
// reason the batch ended early: "" when it played max rounds or the
// run finished, StoppedCanceled when ctx was done at a round boundary.
// Cancellation keeps all partial progress — the mechanism is NOT
// marked done and can be advanced again.
func (m *Mechanism) AdvanceN(ctx context.Context, max int, fn func(*RoundRecord)) (int, string, error) {
	played := 0
	for max <= 0 || played < max {
		if m.Done() {
			return played, "", nil
		}
		if ctx.Err() != nil {
			return played, StoppedCanceled, nil
		}
		rec, err := m.Step()
		if err != nil {
			return played, "", err
		}
		if rec == nil { // halted (e.g. no active sellers)
			return played, "", nil
		}
		played++
		if fn != nil {
			fn(rec)
		}
	}
	return played, "", nil
}

// AdvanceContext plays up to max rounds (max <= 0 means to
// completion), checking ctx before every round. It returns owned deep
// copies of the records of the rounds played plus the reason the batch
// ended early: "" when it played max rounds or the run finished,
// StoppedCanceled when ctx was done at a round boundary. Cancellation
// keeps all partial progress — the mechanism is NOT marked done and
// can be advanced again. Callers that can consume borrowed records
// should prefer AdvanceN, which skips the per-round copies.
func (m *Mechanism) AdvanceContext(ctx context.Context, max int) ([]RoundRecord, string, error) {
	var out []RoundRecord
	_, reason, err := m.AdvanceN(ctx, max, func(rec *RoundRecord) {
		out = append(out, rec.Clone())
	})
	return out, reason, err
}

// Result snapshots the cumulative metrics. It may be called at any
// time; after Done it is the final result.
func (m *Mechanism) Result() *Result {
	res := *m.res
	res.Rounds = m.res.Rounds
	res.Checkpoints = m.res.Checkpoints
	res.RealizedRevenue = m.realized.Sum()
	res.ExpectedRevenue = m.tracker.ExpectedRevenue()
	res.Regret = m.tracker.Regret()
	res.RegretBound = m.tracker.Bound(m.cfg.Market.Job.N)
	res.CumPoC = m.cumPoC.Sum()
	res.CumPoP = m.cumPoP.Sum()
	res.CumPoS = m.cumPoS.Sum()
	res.ConsumerSpend = m.spend.Sum()
	if m.aggRounds > 0 {
		res.MeanAggRMSE = m.aggSum.Sum() / float64(m.aggRounds)
	} else {
		res.MeanAggRMSE = math.NaN()
	}
	if m.dynTrack != nil {
		res.DynamicRegret = m.dynTrack.Regret()
	} else {
		res.DynamicRegret = math.NaN()
	}
	res.Stopped = m.stopped
	res.Estimates = m.arms.Means()
	res.SellerTotals = append([]float64(nil), m.sellerTotals...)
	return &res
}

// Run executes the mechanism with the given bandit policy over the
// full configured horizon.
func Run(cfg *Config, policy bandit.Policy) (*Result, error) {
	return RunContext(context.Background(), cfg, policy)
}

// RunContext is Run with cancellation: it checks ctx between rounds
// and, when ctx is done, returns the PARTIAL result accumulated so
// far with Result.Stopped set to StoppedCanceled and a nil error.
// Real mechanism failures still return a non-nil error.
func RunContext(ctx context.Context, cfg *Config, policy bandit.Policy) (*Result, error) {
	m, err := NewMechanism(cfg, policy)
	if err != nil {
		return nil, err
	}
	_, reason, err := m.AdvanceContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	res := m.Result()
	if reason != "" && res.Stopped == "" {
		res.Stopped = reason
	}
	return res, nil
}

// solve dispatches to the configured game solver. The closed-form
// path solves into the mechanism's pooled outcome; the exact and
// numeric ablation solvers keep their own allocation.
func (m *Mechanism) solve(params *game.Params) (*game.Outcome, error) {
	switch m.cfg.Solver {
	case Exact:
		return game.SolveExact(params)
	case Numeric:
		return game.NumericSolve(params)
	default:
		return params.SolveInto(&m.out)
	}
}
