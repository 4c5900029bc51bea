// Package bandit implements the K-armed Combinatorial Multi-Armed
// Bandit substrate of CMAB-HS: per-arm quality estimators (Eqs.
// 17–18), the extended UCB index (Eq. 19), the selection policies the
// paper evaluates (UCB-greedy, optimal oracle, ε-first, random) plus
// two extensions (ε-greedy, Thompson sampling), and the regret
// accounting of Sec. IV-A (Eqs. 34–37 and the Theorem 19 bound).
package bandit

import (
	"fmt"
	"math"
)

// Arms maintains the online quality statistics of all M sellers: the
// learning counts n_i (Eq. 17), the sample means q̄_i (Eq. 18), and
// the observation sums needed by the Thompson extension.
type Arms struct {
	count    []int64   // n_i: number of quality observations folded in
	mean     []float64 // q̄_i: running sample mean
	sum      []float64 // Σ observations (for posterior-based policies)
	total    int64     // Σ_j n_j
	inactive []bool    // arms withdrawn from selection (seller churn)
	nActive  int
}

// NewArms creates estimators for m arms, all unobserved and active.
func NewArms(m int) *Arms {
	if m <= 0 {
		panic("bandit: need at least one arm")
	}
	return &Arms{
		count:    make([]int64, m),
		mean:     make([]float64, m),
		sum:      make([]float64, m),
		inactive: make([]bool, m),
		nActive:  m,
	}
}

// M returns the number of arms.
func (a *Arms) M() int { return len(a.count) }

// Update folds one round's observations of arm i into the estimator.
// A selected seller collects at all L PoIs, so its quality is learned
// L times per round (Eq. 17); pass those L values here.
func (a *Arms) Update(i int, observations []float64) {
	if len(observations) == 0 {
		return
	}
	for _, q := range observations {
		if q < 0 || q > 1 || math.IsNaN(q) {
			panic(fmt.Sprintf("bandit: observation %v outside [0,1]", q))
		}
		a.sum[i] += q
	}
	a.count[i] += int64(len(observations))
	a.total += int64(len(observations))
	a.mean[i] = a.sum[i] / float64(a.count[i])
}

// Count returns n_i.
func (a *Arms) Count(i int) int64 { return a.count[i] }

// Mean returns the current estimate q̄_i (0 if unobserved).
func (a *Arms) Mean(i int) float64 { return a.mean[i] }

// Means returns a copy of all current estimates.
func (a *Arms) Means() []float64 {
	return append([]float64(nil), a.mean...)
}

// MeansInto copies all current estimates into dst, growing it only
// when its capacity is short, and returns the filled slice — the
// allocation-free form of Means for hot-path callers that own a
// reusable buffer.
func (a *Arms) MeansInto(dst []float64) []float64 {
	if cap(dst) < len(a.mean) {
		dst = make([]float64, len(a.mean))
	}
	dst = dst[:len(a.mean)]
	copy(dst, a.mean)
	return dst
}

// Deactivate withdraws arm i from selection (the seller left the
// market). Its statistics are kept; deactivation is permanent.
func (a *Arms) Deactivate(i int) {
	if !a.inactive[i] {
		a.inactive[i] = true
		a.nActive--
	}
}

// Active reports whether arm i can still be selected.
func (a *Arms) Active(i int) bool { return !a.inactive[i] }

// ActiveCount returns the number of selectable arms.
func (a *Arms) ActiveCount() int { return a.nActive }

// ActiveIndices returns the selectable arm indices in order.
func (a *Arms) ActiveIndices() []int {
	out := make([]int, 0, a.nActive)
	for i, off := range a.inactive {
		if !off {
			out = append(out, i)
		}
	}
	return out
}

// UCB returns the extended upper-confidence index of arm i for a
// K-selection game (Eq. 19):
//
//	q̂_i = q̄_i + sqrt((K+1)·ln(Σ_j n_j) / n_i)
//
// Unobserved arms get +Inf so they are always explored first;
// deactivated arms get -Inf so they are never selected. Callers that
// rank many arms in one round should take UCBFactor once and call
// UCBAt per arm: the result is bit-identical.
func (a *Arms) UCB(i, k int) float64 { return a.UCBAt(i, a.UCBFactor(k)) }

// UCBFactor returns the round factor (K+1)·max(ln Σ_j n_j, 0) shared by
// every arm's Eq. 19 confidence term. It depends only on K and the
// total count, so a round derives it once instead of once per arm.
func (a *Arms) UCBFactor(k int) float64 {
	logTotal := math.Log(float64(a.total))
	if logTotal < 0 {
		logTotal = 0
	}
	return float64(k+1) * logTotal
}

// UCBAt returns arm i's Eq. 19 index q̄_i + sqrt(factor/n_i) at a round
// factor taken from UCBFactor, with UCB's ±Inf for unobserved and
// deactivated arms. This is the one evaluation of the index: UCB,
// the selection policies and the observer snapshot all go through it.
func (a *Arms) UCBAt(i int, factor float64) float64 {
	if a.inactive[i] {
		return negInf
	}
	if a.count[i] == 0 {
		return posInf
	}
	return a.mean[i] + math.Sqrt(factor/float64(a.count[i]))
}

// posInf and negInf are UCBAt's ±Inf, held in variables so the
// per-arm index stays cheap enough for the compiler to inline.
var posInf, negInf = math.Inf(1), math.Inf(-1)

// UCB1 returns the classic single-play UCB1 index (exploration term
// sqrt(2·ln t / n_i)) — the ablation alternative to Eq. 19.
func (a *Arms) UCB1(i int) float64 {
	if a.inactive[i] {
		return math.Inf(-1)
	}
	if a.count[i] == 0 {
		return math.Inf(1)
	}
	logTotal := math.Log(float64(a.total))
	if logTotal < 0 {
		logTotal = 0
	}
	return a.mean[i] + math.Sqrt(2*logTotal/float64(a.count[i]))
}

// SelectableMeans returns the current estimates with deactivated
// arms replaced by -Inf, the score vector mean-greedy policies rank.
func (a *Arms) SelectableMeans() []float64 {
	out := append([]float64(nil), a.mean...)
	for i, off := range a.inactive {
		if off {
			out[i] = math.Inf(-1)
		}
	}
	return out
}

// Snapshot copies the estimator state, letting callers branch
// what-if explorations without disturbing the live run.
func (a *Arms) Snapshot() *Arms {
	return &Arms{
		count:    append([]int64(nil), a.count...),
		mean:     append([]float64(nil), a.mean...),
		sum:      append([]float64(nil), a.sum...),
		total:    a.total,
		inactive: append([]bool(nil), a.inactive...),
		nActive:  a.nActive,
	}
}

// ArmsState is the serializable state of an Arms estimator.
type ArmsState struct {
	Count    []int64   `json:"count"`
	Mean     []float64 `json:"mean"`
	Sum      []float64 `json:"sum"`
	Total    int64     `json:"total"`
	Inactive []bool    `json:"inactive"`
}

// State exports the estimator for persistence.
func (a *Arms) State() ArmsState {
	return ArmsState{
		Count:    append([]int64(nil), a.count...),
		Mean:     append([]float64(nil), a.mean...),
		Sum:      append([]float64(nil), a.sum...),
		Total:    a.total,
		Inactive: append([]bool(nil), a.inactive...),
	}
}

// Restore overwrites the estimator with an exported state. The state
// must describe the same number of arms the estimator was built for.
func (a *Arms) Restore(st ArmsState) error {
	m := len(a.count)
	if len(st.Count) != m || len(st.Mean) != m || len(st.Sum) != m || len(st.Inactive) != m {
		return fmt.Errorf("bandit: arms state covers %d/%d/%d/%d entries, estimator has %d arms",
			len(st.Count), len(st.Mean), len(st.Sum), len(st.Inactive), m)
	}
	var total int64
	active := 0
	for i := range st.Count {
		if st.Count[i] < 0 {
			return fmt.Errorf("bandit: arms state has negative count for arm %d", i)
		}
		total += st.Count[i]
		if !st.Inactive[i] {
			active++
		}
	}
	if total != st.Total {
		return fmt.Errorf("bandit: arms state total %d does not match per-arm sum %d", st.Total, total)
	}
	copy(a.count, st.Count)
	copy(a.mean, st.Mean)
	copy(a.sum, st.Sum)
	copy(a.inactive, st.Inactive)
	a.total = st.Total
	a.nActive = active
	return nil
}

// TopK returns the indices of the k largest values in scores,
// breaking ties by lower index, in descending score order. It panics
// if k is out of range.
func TopK(scores []float64, k int) []int {
	return TopKInto(nil, scores, k)
}

// TopKInto is TopK writing into dst (sliced to length zero and grown
// as needed), so steady-state callers can reuse one buffer. The
// result aliases dst when it has capacity k.
func TopKInto(dst []int, scores []float64, k int) []int {
	if k <= 0 || k > len(scores) {
		panic(fmt.Sprintf("bandit: TopK k=%d with %d arms", k, len(scores)))
	}
	// Selection into a small ordered buffer: O(M·K) with K ≪ M; no
	// allocation beyond the (reusable) result.
	best := dst[:0]
	if cap(best) < k {
		best = make([]int, 0, k)
	}
	// kth is the buffer's last score once it is full. Arms arrive in
	// index order, so a later arm that does not beat kth (ties go to
	// the lower index) cannot enter; the test is false for NaN, which
	// takes the general path.
	var kth float64
	for i, s := range scores {
		if len(best) == k && s <= kth {
			continue
		}
		pos := len(best)
		for pos > 0 {
			j := best[pos-1]
			if scores[j] > s || (scores[j] == s && j < i) {
				break
			}
			pos--
		}
		if pos < k {
			if len(best) < k {
				best = append(best, 0)
			}
			copy(best[pos+1:], best[pos:len(best)-1])
			best[pos] = i
			if len(best) == k {
				kth = scores[best[k-1]]
			}
		}
	}
	return best
}
