package bandit

import (
	"fmt"
	"math"

	"cmabhs/internal/rng"
)

// Policy selects K sellers each round. Implementations see the shared
// estimator state but must not mutate it; the mechanism owns updates.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// SelectK returns the indices of the K arms to pull in round t
	// (1-based), given the current estimator state. The returned
	// slice is borrowed: a policy may reuse it on its next SelectK
	// call, so callers that retain a selection across rounds must
	// copy it.
	SelectK(round int, arms *Arms, k int) []int
}

// UCBGreedy is the paper's CMAB-HS bandit policy: select the K arms
// with the largest extended UCB indices (Eq. 19), ties to the lower
// index. Unobserved arms rank first, so the cold-start behaviour is
// pure exploration.
//
// A round is one linear scan: the round factor once (UCBFactor), one
// UCBAt per arm into a reused score buffer, and TopKInto a reused
// selection buffer — no allocation once the buffers are sized, and no
// state beyond them, so nothing has to be told when the estimator
// changes. The zero value is ready to use. SelectK reuses its buffers,
// so one value serves one run at a time.
type UCBGreedy struct {
	scores []float64 // Eq. 19 indices of the current round
	sel    []int     // selection returned by the last SelectK
}

// Name implements Policy.
func (*UCBGreedy) Name() string { return "CMAB-HS" }

// SelectK implements Policy. The returned slice is valid until the
// next SelectK call on this policy.
func (p *UCBGreedy) SelectK(round int, arms *Arms, k int) []int {
	scores := scratch(&p.scores, arms.M())
	factor := arms.UCBFactor(k)
	for i := range scores {
		scores[i] = arms.UCBAt(i, factor)
	}
	p.sel = TopKInto(p.sel, scores, k)
	return p.sel
}

// scratch returns *buf resized to n, reallocated only when it is too
// small.
func scratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Scores returns the Eq. 19 index of every arm as the last SelectK
// computed it, indexed by arm, with -Inf for deactivated arms. The
// slice is the policy's buffer: it is valid until the next SelectK
// and must not be modified.
func (p *UCBGreedy) Scores() []float64 { return p.scores }

// UCB1Greedy is the ablation variant using the classic UCB1 index
// instead of the (K+1)-scaled extended index.
type UCB1Greedy struct{}

// Name implements Policy.
func (UCB1Greedy) Name() string { return "UCB1" }

// SelectK implements Policy.
func (UCB1Greedy) SelectK(round int, arms *Arms, k int) []int {
	scores := make([]float64, arms.M())
	for i := range scores {
		scores[i] = arms.UCB1(i)
	}
	return TopK(scores, k)
}

// Oracle knows the true expected qualities in advance and always
// selects the same top-K set — the paper's "optimal" baseline.
type Oracle struct {
	expected []float64
	cached   []int
	scores   []float64 // churn-branch scratch, reused across rounds
	churnSel []int     // churn-branch result buffer, reused across rounds
}

// NewOracle builds the oracle from the true expectations.
func NewOracle(expected []float64) *Oracle {
	return &Oracle{expected: append([]float64(nil), expected...)}
}

// Name implements Policy.
func (*Oracle) Name() string { return "optimal" }

// SelectK implements Policy.
func (o *Oracle) SelectK(round int, arms *Arms, k int) []int {
	if arms.ActiveCount() < arms.M() {
		// Churn: re-rank among the surviving sellers each round,
		// masking departures into a reused scratch score vector.
		scores := scratch(&o.scores, len(o.expected))
		copy(scores, o.expected)
		for i := range scores {
			if !arms.Active(i) {
				scores[i] = math.Inf(-1)
			}
		}
		o.churnSel = TopKInto(o.churnSel, scores, k)
		return o.churnSel
	}
	if o.cached == nil || len(o.cached) != k {
		o.cached = TopK(o.expected, k)
	}
	return o.cached
}

// Random selects K arms uniformly at random each round — the paper's
// "random" baseline.
type Random struct {
	src *rng.Source
}

// NewRandom builds the policy with its own random stream.
func NewRandom(src *rng.Source) *Random { return &Random{src: src} }

// Name implements Policy.
func (*Random) Name() string { return "random" }

// SelectK implements Policy.
func (r *Random) SelectK(round int, arms *Arms, k int) []int {
	return randomSubset(arms, k, r.src)
}

// EpsilonFirst explores with random selections for the first ε·N
// rounds, then greedily exploits the sample means — the paper's
// "ε-first" baseline.
type EpsilonFirst struct {
	Epsilon float64 // fraction of rounds spent exploring, in [0, 1]
	Horizon int     // total rounds N
	src     *rng.Source
}

// NewEpsilonFirst builds the policy; epsilon is clamped to [0, 1].
func NewEpsilonFirst(epsilon float64, horizon int, src *rng.Source) *EpsilonFirst {
	if epsilon < 0 {
		epsilon = 0
	}
	if epsilon > 1 {
		epsilon = 1
	}
	return &EpsilonFirst{Epsilon: epsilon, Horizon: horizon, src: src}
}

// Name implements Policy.
func (p *EpsilonFirst) Name() string { return fmt.Sprintf("%.1f-first", p.Epsilon) }

// SelectK implements Policy.
func (p *EpsilonFirst) SelectK(round int, arms *Arms, k int) []int {
	if float64(round) <= p.Epsilon*float64(p.Horizon) {
		return randomSubset(arms, k, p.src)
	}
	return TopK(arms.SelectableMeans(), k)
}

// EpsilonGreedy explores with probability ε every round and exploits
// the sample means otherwise — a standard bandit baseline beyond the
// paper's comparison set.
type EpsilonGreedy struct {
	Epsilon float64
	src     *rng.Source
}

// NewEpsilonGreedy builds the policy; epsilon is clamped to [0, 1].
func NewEpsilonGreedy(epsilon float64, src *rng.Source) *EpsilonGreedy {
	if epsilon < 0 {
		epsilon = 0
	}
	if epsilon > 1 {
		epsilon = 1
	}
	return &EpsilonGreedy{Epsilon: epsilon, src: src}
}

// Name implements Policy.
func (p *EpsilonGreedy) Name() string { return fmt.Sprintf("%.2f-greedy", p.Epsilon) }

// SelectK implements Policy.
func (p *EpsilonGreedy) SelectK(round int, arms *Arms, k int) []int {
	if p.src.Float64() < p.Epsilon {
		return randomSubset(arms, k, p.src)
	}
	return TopK(arms.SelectableMeans(), k)
}

// Thompson samples a Beta posterior per arm (successes ≈ Σ
// observations, failures ≈ n − Σ observations, both plus 1) and picks
// the top-K samples — a Bayesian extension beyond the paper.
type Thompson struct {
	src *rng.Source
}

// NewThompson builds the policy with its own random stream.
func NewThompson(src *rng.Source) *Thompson { return &Thompson{src: src} }

// Name implements Policy.
func (*Thompson) Name() string { return "thompson" }

// SelectK implements Policy.
func (t *Thompson) SelectK(round int, arms *Arms, k int) []int {
	scores := make([]float64, arms.M())
	for i := range scores {
		if !arms.Active(i) {
			scores[i] = math.Inf(-1)
			continue
		}
		n := float64(arms.Count(i))
		s := arms.sum[i]
		scores[i] = t.src.Beta(s+1, n-s+1)
	}
	return TopK(scores, k)
}

// PolicyState is the serializable state of a stateful policy. It is a
// tagged union: exactly one field is set, matching the policy type.
// Policies without such state (UCBGreedy, UCB1Greedy, Oracle, whose
// buffers are scratch) have no entry — everything they need lives in
// the shared Arms estimator.
type PolicyState struct {
	RNG        *rng.State       `json:"rng,omitempty"`
	Window     *WindowState     `json:"window,omitempty"`
	Discounted *DiscountedState `json:"discounted,omitempty"`
}

// StatefulPolicy is implemented by policies carrying mutable state
// beyond the shared Arms estimator — their own RNG streams or
// forgetting windows — which must travel with a snapshot for a
// restored run to reproduce the original bit-for-bit.
type StatefulPolicy interface {
	// PolicyState exports the policy's private state.
	PolicyState() PolicyState
	// RestorePolicyState overwrites the private state; it errors when
	// the state's variant or shape does not match the policy.
	RestorePolicyState(PolicyState) error
}

// rngPolicyState exports a policy whose only private state is an RNG
// stream.
func rngPolicyState(src *rng.Source) PolicyState {
	st := src.State()
	return PolicyState{RNG: &st}
}

// restoreRNGPolicy restores an RNG-only policy state.
func restoreRNGPolicy(name string, src *rng.Source, st PolicyState) error {
	if st.RNG == nil {
		return fmt.Errorf("bandit: %s policy state without rng", name)
	}
	src.SetState(*st.RNG)
	return nil
}

// PolicyState implements StatefulPolicy.
func (r *Random) PolicyState() PolicyState { return rngPolicyState(r.src) }

// RestorePolicyState implements StatefulPolicy.
func (r *Random) RestorePolicyState(st PolicyState) error {
	return restoreRNGPolicy("random", r.src, st)
}

// PolicyState implements StatefulPolicy.
func (p *EpsilonFirst) PolicyState() PolicyState { return rngPolicyState(p.src) }

// RestorePolicyState implements StatefulPolicy.
func (p *EpsilonFirst) RestorePolicyState(st PolicyState) error {
	return restoreRNGPolicy("epsilon-first", p.src, st)
}

// PolicyState implements StatefulPolicy.
func (p *EpsilonGreedy) PolicyState() PolicyState { return rngPolicyState(p.src) }

// RestorePolicyState implements StatefulPolicy.
func (p *EpsilonGreedy) RestorePolicyState(st PolicyState) error {
	return restoreRNGPolicy("epsilon-greedy", p.src, st)
}

// PolicyState implements StatefulPolicy.
func (t *Thompson) PolicyState() PolicyState { return rngPolicyState(t.src) }

// RestorePolicyState implements StatefulPolicy.
func (t *Thompson) RestorePolicyState(st PolicyState) error {
	return restoreRNGPolicy("thompson", t.src, st)
}

// PolicyState implements StatefulPolicy.
func (p *SlidingWindowUCB) PolicyState() PolicyState {
	st := p.State()
	return PolicyState{Window: &st}
}

// RestorePolicyState implements StatefulPolicy.
func (p *SlidingWindowUCB) RestorePolicyState(st PolicyState) error {
	if st.Window == nil {
		return fmt.Errorf("bandit: sliding-window policy state without window")
	}
	return p.Restore(*st.Window)
}

// PolicyState implements StatefulPolicy.
func (p *DiscountedUCB) PolicyState() PolicyState {
	st := p.State()
	return PolicyState{Discounted: &st}
}

// RestorePolicyState implements StatefulPolicy.
func (p *DiscountedUCB) RestorePolicyState(st PolicyState) error {
	if st.Discounted == nil {
		return fmt.Errorf("bandit: discounted policy state without discounted")
	}
	return p.Restore(*st.Discounted)
}

var (
	_ StatefulPolicy = (*Random)(nil)
	_ StatefulPolicy = (*EpsilonFirst)(nil)
	_ StatefulPolicy = (*EpsilonGreedy)(nil)
	_ StatefulPolicy = (*Thompson)(nil)
	_ StatefulPolicy = (*SlidingWindowUCB)(nil)
	_ StatefulPolicy = (*DiscountedUCB)(nil)
)

// randomSubset draws k distinct active arms uniformly.
func randomSubset(arms *Arms, k int, src *rng.Source) []int {
	active := arms.ActiveIndices()
	src.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
	return active[:k]
}

var (
	_ Policy = (*UCBGreedy)(nil)
	_ Policy = UCB1Greedy{}
	_ Policy = (*Oracle)(nil)
	_ Policy = (*Random)(nil)
	_ Policy = (*EpsilonFirst)(nil)
	_ Policy = (*EpsilonGreedy)(nil)
	_ Policy = (*Thompson)(nil)
)
