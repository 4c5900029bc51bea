package bandit

import (
	"fmt"
	"math"
)

// SelectionSync is implemented by policies that cache per-arm
// selection state derived from the shared Arms estimator. The
// mechanism that owns the estimator must report every mutation: call
// ArmChanged after folding observations into an arm or deactivating
// it, and InvalidateSelection after bulk rewrites (Restore). A policy
// that misses a notification would select from stale indices, so the
// contract is load-bearing for correctness, not just speed.
type SelectionSync interface {
	// ArmChanged marks arm i as modified since the last SelectK.
	ArmChanged(i int)
	// InvalidateSelection discards all cached selection state; the
	// next SelectK rebuilds from the estimator.
	InvalidateSelection()
}

// Bound inflation constants. Tournament node bounds must stay
// admissible — never below any exact Eq. 19 index in the subtree —
// despite floating-point rounding in the drift extrapolation:
// slackRel inflates the 1/sqrt(n) drift rate (the exact per-arm
// confidence divides inside the square root, the bound multiplies two
// independently rounded roots), and slackAbs absorbs the final
// additions' half-ulp rounding, which a vanishing drift term cannot.
// Both exceed the worst-case rounding error by orders of magnitude
// and only ever push a bound up, which costs (rare) extra node
// expansions, never correctness.
const (
	slackRel = 1e-9
	slackAbs = 1e-12
)

// IncrementalUCB is the allocation-free CMAB-HS selection policy: it
// returns bit-for-bit the same selections as UCBGreedy (the K arms
// with the largest extended UCB indices of Eq. 19, ties to the lower
// index) but maintains its ranking state incrementally instead of
// recomputing and fully sorting all M indices every round.
//
// The structure is a static tournament (segment) tree over the arms.
// In round-count space the Eq. 19 index of arm i is
//
//	q̄_i + sqrt(A)/sqrt(n_i),  A = (K+1)·ln Σ_j n_j,
//
// so each tournament node caches an admissible upper bound val on the
// best index in its subtree together with the sqrt(A) at which it was
// evaluated, plus the subtree's fastest possible growth rate
// (1+ε)/sqrt(min n). A cached bound is revalidated forward to the
// current round as
//
//	val + (sqrt(A_now) − sqrt(A_eval))·rate + ε′
//
// which remains an upper bound because no index can grow faster than
// the subtree's smallest-count arm. That one identity handles the
// global ln Σn_j drift without touching the tree: nothing cached
// depends on the round otherwise. Unobserved arms carry +Inf and
// deactivated arms -Inf with zero rate, so the infinities propagate
// through the same max/drift arithmetic without special cases.
//
// After a round, only the K played arms (reported via SelectionSync)
// are refreshed — each leaf re-evaluates exactly and the dirty root
// paths are re-merged level by level with shared ancestors visited
// once, O(K log M). SelectK then runs a branch-and-bound DFS from the
// root, best bound first: internal nodes are scored with their
// drifted bounds (and re-tightened as they are expanded, so staleness
// self-corrects), leaves with their exact Eq. 19 index, and subtrees
// strictly below the running K-th best are pruned. Only the top of
// the tournament is re-examined — O(K log M) node visits in the
// steady state instead of an O(M log M) re-rank.
//
// Every emitted arm is scored by the exact index UCBGreedy ranks
// (bit-for-bit: leaves are evaluated by Arms.UCBAt at the round's
// Arms.UCBFactor, the pair Arms.UCB itself is built on), and node
// bounds only ever prune subtrees strictly below the current K-th
// best exact index, so the selection — and with it
// baselines, snapshots, and chaos bit-identity — is exactly that of
// UCBGreedy. TopK over the dense score vector stays the oracle in the
// property tests.
//
// The zero value is ready to use; the tree is built lazily on the
// first SelectK (and after InvalidateSelection, e.g. following a
// snapshot restore). SelectK returns a slice that is reused on the
// next call — callers that retain it across rounds must copy.
type IncrementalUCB struct {
	arms *Arms // estimator the tree was built over
	m    int   // number of arms at build time
	k    int   // selection size the bounds were evaluated for
	base int   // first leaf node id; power of two ≥ m

	// Per-node state, indexed by tournament node id (1 = root,
	// children of n are 2n and 2n+1, arm i lives at base+i).
	val     []float64 // admissible bound on the subtree's best index…
	atSqrtA []float64 // …evaluated at this sqrt((K+1)·ln Σn_j)
	rate    []float64 // (1+ε)/sqrt(min n): the bound's max growth rate

	dirty       []int  // arms changed since the last SelectK
	marked      []bool // per-arm dedup for dirty
	invalid     bool   // full rebuild required
	syncedTotal int64  // arms.TotalCount() at the end of the last sync

	stack   []selFrame // DFS frontier, reused across calls
	path    []int      // dirty ancestor scratch, reused across calls
	sel     []int      // result buffer, reused across calls
	selVals []float64  // scores of sel, same order
}

// selFrame is one deferred DFS branch: a tournament node and the
// score it was deferred with (exact Eq. 19 index for leaves,
// admissible bound for internal nodes).
type selFrame struct {
	score float64
	node  int32
}

// NewIncrementalUCB returns an empty policy; state is built lazily
// from the Arms estimator passed to the first SelectK.
func NewIncrementalUCB() *IncrementalUCB { return &IncrementalUCB{} }

// Name implements Policy. The policy is the same CMAB-HS selection
// rule as UCBGreedy — only the evaluation strategy differs — so it
// reports the same name and is interchangeable in every output.
func (*IncrementalUCB) Name() string { return "CMAB-HS" }

// ArmChanged implements SelectionSync.
func (p *IncrementalUCB) ArmChanged(i int) {
	if p.arms == nil || p.invalid {
		return // next SelectK rebuilds everything anyway
	}
	if i < 0 || i >= p.m {
		p.invalid = true
		return
	}
	if !p.marked[i] {
		p.marked[i] = true
		p.dirty = append(p.dirty, i)
	}
}

// InvalidateSelection implements SelectionSync.
func (p *IncrementalUCB) InvalidateSelection() { p.invalid = true }

// SelectK implements Policy. The returned slice is valid until the
// next SelectK call on this policy.
func (p *IncrementalUCB) SelectK(round int, arms *Arms, k int) []int {
	if k <= 0 || k > arms.M() {
		panic(fmt.Sprintf("bandit: TopK k=%d with %d arms", k, arms.M()))
	}
	// The round-dependent factor of every Eq. 19 confidence term:
	// leaf indices are Arms.UCBAt at this very factor, so they match
	// Arms.UCB bit-for-bit without re-deriving ln Σn_j per leaf.
	a := arms.UCBFactor(k)
	sqrtA := math.Sqrt(a)
	p.sync(arms, k, a, sqrtA)

	// Partial re-selection: a branch-and-bound DFS over the
	// tournament, descending best-bound-first and keeping the running
	// top k in a TopK-style insertion buffer ordered by the same
	// total order TopK uses (score descending, ties to the lower
	// index). A subtree is pruned only when its admissible bound is
	// strictly below the current K-th best exact index — on equality
	// it is searched, because an equal bound can hide an equal-valued
	// arm at a lower index — so the buffer converges to exactly the
	// TopK selection. Every arm that enters the buffer is scored by
	// its exact Eq. 19 index; bounds only ever prune.
	sel, selVals := p.sel[:0], p.selVals[:0]
	kth := math.Inf(-1) // buffer's k-th score once full
	stack := p.stack[:0]
	stack = append(stack, selFrame{score: p.bound(1, sqrtA), node: 1})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Re-check against the K-th best, which may have risen since
		// this branch was deferred.
		if len(sel) == k && top.score < kth {
			continue
		}
		n := int(top.node)
		if n >= p.base {
			// Leaf: insert the exact index into the result buffer.
			i := n - p.base
			if i >= p.m {
				continue // padding past M
			}
			v := top.score
			pos := len(sel)
			for pos > 0 {
				j := pos - 1
				if selVals[j] > v || (selVals[j] == v && sel[j] < i) {
					break
				}
				pos--
			}
			if pos < k {
				if len(sel) < k {
					sel = append(sel, 0)
					selVals = append(selVals, 0)
				}
				copy(sel[pos+1:], sel[pos:len(sel)-1])
				copy(selVals[pos+1:], selVals[pos:len(selVals)-1])
				sel[pos] = i
				selVals[pos] = v
				if len(sel) == k {
					kth = selVals[k-1]
				}
			}
			continue
		}
		bl := p.childScore(2*n, arms, a, sqrtA)
		br := p.childScore(2*n+1, arms, a, sqrtA)
		// Re-tighten the expanded node at the current round, so a
		// stale subtree costs one deep descent, not one per round.
		if p.rate[2*n] >= p.rate[2*n+1] {
			p.rate[n] = p.rate[2*n]
		} else {
			p.rate[n] = p.rate[2*n+1]
		}
		if bl >= br {
			p.val[n] = bl
			p.atSqrtA[n] = sqrtA
			// Defer the lesser branch; descend the better one first
			// so the K-th best rises as fast as possible.
			if !(len(sel) == k && br < kth) {
				stack = append(stack, selFrame{score: br, node: int32(2*n + 1)})
			}
			stack = append(stack, selFrame{score: bl, node: int32(2 * n)})
		} else {
			p.val[n] = br
			p.atSqrtA[n] = sqrtA
			if !(len(sel) == k && bl < kth) {
				stack = append(stack, selFrame{score: bl, node: int32(2 * n)})
			}
			stack = append(stack, selFrame{score: br, node: int32(2*n + 1)})
		}
	}
	p.stack, p.sel, p.selVals = stack, sel, selVals
	if len(sel) < k {
		// Unreachable with k ≤ M: the tree enumerates every arm.
		panic("bandit: incremental selection exhausted the tournament")
	}
	return sel
}

// childScore evaluates DFS child n: the exact Eq. 19 index for
// leaves (-Inf for padding past M), the drifted admissible bound for
// internal nodes.
func (p *IncrementalUCB) childScore(n int, arms *Arms, a, sqrtA float64) float64 {
	if n >= p.base {
		i := n - p.base
		if i >= p.m {
			return math.Inf(-1)
		}
		return arms.UCBAt(i, a)
	}
	return p.bound(n, sqrtA)
}

// bound returns the admissible upper bound of node n's subtree at the
// current sqrt(A), drifting the cached evaluation forward at the
// subtree's maximal growth rate. Infinite vals carry zero-ish rates,
// so the arithmetic never produces NaN.
func (p *IncrementalUCB) bound(n int, sqrtA float64) float64 {
	drift := sqrtA - p.atSqrtA[n]
	if drift < 0 {
		drift = 0
	}
	return p.val[n] + drift*p.rate[n] + slackAbs
}

// refresh re-evaluates internal node n's aggregates from its children
// at the current sqrt(A).
func (p *IncrementalUCB) refresh(n int, sqrtA float64) {
	l, r := 2*n, 2*n+1
	if p.rate[l] >= p.rate[r] {
		p.rate[n] = p.rate[l]
	} else {
		p.rate[n] = p.rate[r]
	}
	bl, br := p.bound(l, sqrtA), p.bound(r, sqrtA)
	if bl >= br {
		p.val[n] = bl
	} else {
		p.val[n] = br
	}
	p.atSqrtA[n] = sqrtA
}

// sync brings the tournament up to date: a full rebuild when the
// estimator changed identity/shape, the selection size changed, or
// the state was invalidated; otherwise a refresh of just the dirty
// leaves and their root paths.
func (p *IncrementalUCB) sync(arms *Arms, k int, a, sqrtA float64) {
	if p.arms != arms || p.m != arms.M() || p.k != k {
		p.invalid = true
	}
	if !p.invalid && len(p.dirty) == 0 && arms.TotalCount() != p.syncedTotal {
		// The estimator moved without a notification: a driver is
		// mutating arms outside the SelectionSync contract. Fall back
		// to a full rebuild rather than select from stale indices.
		p.invalid = true
	}
	if p.invalid {
		p.rebuild(arms, k, a, sqrtA)
		return
	}
	if len(p.dirty) == 0 {
		return
	}
	// Refresh dirty leaves, then re-merge their root paths level by
	// level: parents of a sorted node list are sorted, so shared
	// ancestors deduplicate by adjacency and each is visited once.
	ns := p.path[:0]
	for _, i := range p.dirty {
		p.marked[i] = false
		p.setLeaf(arms, i, a, sqrtA)
		n := p.base + i
		pos := len(ns)
		for pos > 0 && ns[pos-1] > n {
			pos--
		}
		ns = append(ns, 0)
		copy(ns[pos+1:], ns[pos:len(ns)-1])
		ns[pos] = n
	}
	p.dirty = p.dirty[:0]
	for ns[0] > 1 {
		w := 0
		for _, n := range ns {
			parent := n / 2
			if w > 0 && ns[w-1] == parent {
				continue
			}
			ns[w] = parent
			w++
		}
		ns = ns[:w]
		for _, n := range ns {
			p.refresh(n, sqrtA)
		}
	}
	p.path = ns
	p.syncedTotal = arms.TotalCount()
}

// rebuild sizes the tree for the estimator and recomputes every node.
func (p *IncrementalUCB) rebuild(arms *Arms, k int, a, sqrtA float64) {
	m := arms.M()
	base := 1
	for base < m {
		base *= 2
	}
	if p.arms != arms || p.m != m {
		p.arms, p.m, p.base = arms, m, base
		p.val = make([]float64, 2*base)
		p.atSqrtA = make([]float64, 2*base)
		p.rate = make([]float64, 2*base)
		p.marked = make([]bool, m)
		p.dirty = p.dirty[:0]
	}
	p.k = k
	for i := 0; i < m; i++ {
		p.marked[i] = false
		p.setLeaf(arms, i, a, sqrtA)
	}
	for n := base + m; n < 2*base; n++ {
		p.val[n] = math.Inf(-1)
		p.rate[n] = 0
		p.atSqrtA[n] = sqrtA
	}
	for n := base - 1; n >= 1; n-- {
		p.refresh(n, sqrtA)
	}
	p.dirty = p.dirty[:0]
	p.invalid = false
	p.syncedTotal = arms.TotalCount()
}

// setLeaf refreshes arm i's leaf from the estimator: the exact Eq. 19
// index and the exact growth rate, so leaf bounds carry no slack
// until they drift.
func (p *IncrementalUCB) setLeaf(arms *Arms, i int, a, sqrtA float64) {
	n := p.base + i
	p.val[n] = arms.UCBAt(i, a)
	p.atSqrtA[n] = sqrtA
	if c := arms.Count(i); c > 0 && arms.Active(i) {
		p.rate[n] = (1 + slackRel) / math.Sqrt(float64(c))
	} else {
		p.rate[n] = 0
	}
}

var (
	_ Policy        = (*IncrementalUCB)(nil)
	_ SelectionSync = (*IncrementalUCB)(nil)
)
