package bandit

import (
	"fmt"
	"math"
)

// This file implements the non-stationary extensions: policies whose
// quality estimates forget the past, for markets where sellers'
// expected qualities drift (the paper's Def. 3 Remark assumes fixed
// q_i; these policies relax that). Both maintain their own
// observation state via the RoundFeedback hook, since the shared
// Arms estimator is cumulative by design.

// RoundFeedback is implemented by policies that maintain their own
// per-round observation state. The mechanism calls ObserveRound for
// every (selected seller, observation batch) right after updating
// the shared estimator.
type RoundFeedback interface {
	ObserveRound(round, seller int, obs []float64)
}

// batch is one round's observations of one arm.
type batch struct {
	round int
	n     int64
	sum   float64
}

// SlidingWindowUCB ranks arms by a UCB computed over only the last
// Window rounds of observations (SW-UCB, Garivier & Moulines). Arms
// unobserved within the window get +Inf (re-exploration), so the
// policy tracks drifting qualities at the price of extra exploration.
type SlidingWindowUCB struct {
	Window int // rounds of memory (> 0)

	arms  [][]batch // per-arm pending batches, round-ordered
	count []int64   // in-window count per arm
	sum   []float64 // in-window sum per arm
	total int64     // in-window count across arms

	scores []float64 // SelectK's scratch, reused across rounds
	sel    []int     // selection returned by the last SelectK
}

// NewSlidingWindowUCB builds the policy with the given window length.
func NewSlidingWindowUCB(window int) *SlidingWindowUCB {
	if window <= 0 {
		panic("bandit: window must be positive")
	}
	return &SlidingWindowUCB{Window: window}
}

// Name implements Policy.
func (p *SlidingWindowUCB) Name() string { return fmt.Sprintf("sw-ucb(%d)", p.Window) }

// ObserveRound implements RoundFeedback.
func (p *SlidingWindowUCB) ObserveRound(round, seller int, obs []float64) {
	if len(obs) == 0 {
		return
	}
	p.grow(seller + 1)
	var s float64
	for _, q := range obs {
		s += q
	}
	b := batch{round: round, n: int64(len(obs)), sum: s}
	p.arms[seller] = append(p.arms[seller], b)
	p.count[seller] += b.n
	p.sum[seller] += b.sum
	p.total += b.n
}

func (p *SlidingWindowUCB) grow(n int) {
	for len(p.arms) < n {
		p.arms = append(p.arms, nil)
		p.count = append(p.count, 0)
		p.sum = append(p.sum, 0)
	}
}

// evict drops batches older than the window relative to round,
// moving each arm's survivors to the front of its list so the list's
// capacity is kept for the rounds to come.
func (p *SlidingWindowUCB) evict(round int) {
	cutoff := round - p.Window
	for i := range p.arms {
		drop := 0
		for drop < len(p.arms[i]) && p.arms[i][drop].round <= cutoff {
			b := p.arms[i][drop]
			p.count[i] -= b.n
			p.sum[i] -= b.sum
			p.total -= b.n
			drop++
		}
		if drop > 0 {
			p.arms[i] = p.arms[i][:copy(p.arms[i], p.arms[i][drop:])]
		}
	}
}

// SelectK implements Policy. The returned slice is valid until the
// next SelectK call on this policy.
func (p *SlidingWindowUCB) SelectK(round int, arms *Arms, k int) []int {
	p.grow(arms.M())
	p.evict(round)
	logTotal := 0.0
	if p.total > 1 {
		logTotal = math.Log(float64(p.total))
	}
	scores := scratch(&p.scores, arms.M())
	for i := range scores {
		switch {
		case !arms.Active(i):
			scores[i] = math.Inf(-1)
		case p.count[i] == 0:
			scores[i] = math.Inf(1)
		default:
			n := float64(p.count[i])
			scores[i] = p.sum[i]/n + math.Sqrt(float64(k+1)*logTotal/n)
		}
	}
	p.sel = TopKInto(p.sel, scores, k)
	return p.sel
}

// BatchState is one round's observations of one arm on the wire.
type BatchState struct {
	Round int     `json:"round"`
	N     int64   `json:"n"`
	Sum   float64 `json:"sum"`
}

// WindowState is the serializable state of a SlidingWindowUCB.
type WindowState struct {
	Window int            `json:"window"`
	Arms   [][]BatchState `json:"arms"`
	Count  []int64        `json:"count"`
	Sum    []float64      `json:"sum"`
	Total  int64          `json:"total"`
}

// State exports the window for persistence.
func (p *SlidingWindowUCB) State() WindowState {
	st := WindowState{
		Window: p.Window,
		Arms:   make([][]BatchState, len(p.arms)),
		Count:  append([]int64(nil), p.count...),
		Sum:    append([]float64(nil), p.sum...),
		Total:  p.total,
	}
	for i, bs := range p.arms {
		if len(bs) == 0 {
			continue
		}
		row := make([]BatchState, len(bs))
		for j, b := range bs {
			row[j] = BatchState{Round: b.round, N: b.n, Sum: b.sum}
		}
		st.Arms[i] = row
	}
	return st
}

// Restore overwrites the window with an exported state.
func (p *SlidingWindowUCB) Restore(st WindowState) error {
	if st.Window != p.Window {
		return fmt.Errorf("bandit: window state for window %d, policy has %d", st.Window, p.Window)
	}
	if len(st.Arms) != len(st.Count) || len(st.Arms) != len(st.Sum) {
		return fmt.Errorf("bandit: window state with %d/%d/%d rows", len(st.Arms), len(st.Count), len(st.Sum))
	}
	arms := make([][]batch, len(st.Arms))
	for i, row := range st.Arms {
		var n int64
		var sum float64
		bs := make([]batch, len(row))
		for j, b := range row {
			if b.N < 0 {
				return fmt.Errorf("bandit: window state arm %d has negative batch count", i)
			}
			bs[j] = batch{round: b.Round, n: b.N, sum: b.Sum}
			n += b.N
			sum += b.Sum
		}
		if n != st.Count[i] {
			return fmt.Errorf("bandit: window state arm %d count %d does not match batches (%d)", i, st.Count[i], n)
		}
		arms[i] = bs
	}
	p.arms = arms
	p.count = append([]int64(nil), st.Count...)
	p.sum = append([]float64(nil), st.Sum...)
	p.total = st.Total
	return nil
}

// DiscountedUCB ranks arms by an exponentially discounted UCB
// (D-UCB): every observation's weight decays by Gamma per round, so
// old evidence fades smoothly instead of expiring abruptly.
type DiscountedUCB struct {
	Gamma float64 // per-round discount in (0, 1)

	count []float64 // discounted count per arm, valid at `asOf`
	sum   []float64 // discounted observation sum per arm
	asOf  []int     // round the aggregates are discounted to

	scores []float64 // SelectK's scratch, reused across rounds
	sel    []int     // selection returned by the last SelectK
}

// NewDiscountedUCB builds the policy with the given discount factor.
func NewDiscountedUCB(gamma float64) *DiscountedUCB {
	if gamma <= 0 || gamma >= 1 {
		panic("bandit: gamma must be in (0, 1)")
	}
	return &DiscountedUCB{Gamma: gamma}
}

// Name implements Policy.
func (p *DiscountedUCB) Name() string { return fmt.Sprintf("d-ucb(%.3f)", p.Gamma) }

func (p *DiscountedUCB) grow(n int) {
	for len(p.count) < n {
		p.count = append(p.count, 0)
		p.sum = append(p.sum, 0)
		p.asOf = append(p.asOf, 0)
	}
}

// advance discounts arm i's aggregates to the given round.
func (p *DiscountedUCB) advance(i, round int) {
	if round > p.asOf[i] {
		f := math.Pow(p.Gamma, float64(round-p.asOf[i]))
		p.count[i] *= f
		p.sum[i] *= f
		p.asOf[i] = round
	}
}

// ObserveRound implements RoundFeedback.
func (p *DiscountedUCB) ObserveRound(round, seller int, obs []float64) {
	if len(obs) == 0 {
		return
	}
	p.grow(seller + 1)
	p.advance(seller, round)
	for _, q := range obs {
		p.sum[seller] += q
	}
	p.count[seller] += float64(len(obs))
}

// SelectK implements Policy. The returned slice is valid until the
// next SelectK call on this policy.
func (p *DiscountedUCB) SelectK(round int, arms *Arms, k int) []int {
	p.grow(arms.M())
	var total float64
	for i := range p.count {
		p.advance(i, round)
		total += p.count[i]
	}
	logTotal := 0.0
	if total > 1 {
		logTotal = math.Log(total)
	}
	scores := scratch(&p.scores, arms.M())
	for i := range scores {
		switch {
		case !arms.Active(i):
			scores[i] = math.Inf(-1)
		case p.count[i] < 1e-9:
			scores[i] = math.Inf(1)
		default:
			scores[i] = p.sum[i]/p.count[i] + math.Sqrt(float64(k+1)*logTotal/p.count[i])
		}
	}
	p.sel = TopKInto(p.sel, scores, k)
	return p.sel
}

// DiscountedState is the serializable state of a DiscountedUCB.
type DiscountedState struct {
	Gamma float64   `json:"gamma"`
	Count []float64 `json:"count"`
	Sum   []float64 `json:"sum"`
	AsOf  []int     `json:"as_of"`
}

// State exports the discounted aggregates for persistence.
func (p *DiscountedUCB) State() DiscountedState {
	return DiscountedState{
		Gamma: p.Gamma,
		Count: append([]float64(nil), p.count...),
		Sum:   append([]float64(nil), p.sum...),
		AsOf:  append([]int(nil), p.asOf...),
	}
}

// Restore overwrites the aggregates with an exported state.
func (p *DiscountedUCB) Restore(st DiscountedState) error {
	if st.Gamma != p.Gamma {
		return fmt.Errorf("bandit: discounted state for gamma %v, policy has %v", st.Gamma, p.Gamma)
	}
	if len(st.Count) != len(st.Sum) || len(st.Count) != len(st.AsOf) {
		return fmt.Errorf("bandit: discounted state with %d/%d/%d rows", len(st.Count), len(st.Sum), len(st.AsOf))
	}
	p.count = append([]float64(nil), st.Count...)
	p.sum = append([]float64(nil), st.Sum...)
	p.asOf = append([]int(nil), st.AsOf...)
	return nil
}

// DynamicRegret accumulates regret against the per-round dynamic
// oracle: each round's benchmark is the top-K of the qualities as
// they are *at that round*, which is the meaningful notion under
// non-stationary qualities.
type DynamicRegret struct {
	l      int
	regret float64
	rounds int
}

// NewDynamicRegret builds a tracker for l PoIs per round.
func NewDynamicRegret(l int) *DynamicRegret {
	if l <= 0 {
		panic("bandit: need at least one PoI")
	}
	return &DynamicRegret{l: l}
}

// Record accounts one round: expectedNow are the current true
// expectations, selected the chosen arms, k the selection size.
func (d *DynamicRegret) Record(selected []int, expectedNow []float64, k int) {
	d.rounds++
	opt := TopK(expectedNow, k)
	var optVal, val float64
	for _, i := range opt {
		optVal += expectedNow[i]
	}
	for _, i := range selected {
		val += expectedNow[i]
	}
	if gap := optVal - val; gap > 0 {
		d.regret += gap * float64(d.l)
	}
}

// Regret returns the cumulative dynamic regret.
func (d *DynamicRegret) Regret() float64 { return d.regret }

// Rounds returns the number of recorded rounds.
func (d *DynamicRegret) Rounds() int { return d.rounds }

// DynamicRegretState is the serializable state of a DynamicRegret.
type DynamicRegretState struct {
	Regret float64 `json:"regret"`
	Rounds int     `json:"rounds"`
}

// State exports the tracker for persistence.
func (d *DynamicRegret) State() DynamicRegretState {
	return DynamicRegretState{Regret: d.regret, Rounds: d.rounds}
}

// Restore overwrites the tracker with an exported state.
func (d *DynamicRegret) Restore(st DynamicRegretState) error {
	if st.Rounds < 0 {
		return fmt.Errorf("bandit: dynamic regret state with %d rounds", st.Rounds)
	}
	d.regret, d.rounds = st.Regret, st.Rounds
	return nil
}

var (
	_ Policy        = (*SlidingWindowUCB)(nil)
	_ Policy        = (*DiscountedUCB)(nil)
	_ RoundFeedback = (*SlidingWindowUCB)(nil)
	_ RoundFeedback = (*DiscountedUCB)(nil)
)
