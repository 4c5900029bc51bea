package bandit

import (
	"fmt"
	"math/rand"
	"testing"
)

// The CMAB-HS selector (UCBGreedy) is pinned here against the
// sort-based topKRef oracle. The tests keep the TestIncrementalUCB
// names they had when the selector was a tournament tree (DESIGN §14):
// the properties are the same, only the implementation under them
// changed.

// requireSameSelection fails unless got matches want exactly
// (selection content and order).
func requireSameSelection(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: selected %v, want %v", ctx, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: selected %v, want %v", ctx, got, want)
		}
	}
}

// ucbScores evaluates the dense Eq. 19 score vector the sort-based
// reference ranks, one Arms.UCB call per arm.
func ucbScores(arms *Arms, k int) []float64 {
	scores := make([]float64, arms.M())
	for i := range scores {
		scores[i] = arms.UCB(i, k)
	}
	return scores
}

// TestIncrementalUCBMatchesReference: randomized equivalence of the
// selector against the sort-based topKRef oracle across arm counts up
// to 1000, under churn, heavy ties (coarse observation values force
// identical means, batch sizes force identical counts), unobserved
// arms (+Inf indices), deactivated arms (-Inf) and bulk restores. One
// policy value serves every market size, so its buffers are resized
// in both directions.
func TestIncrementalUCBMatchesReference(t *testing.T) {
	coarse := []float64{0, 0.25, 0.5, 0.5, 1} // repeats breed mean ties
	p := &UCBGreedy{}
	for _, m := range []int{1, 2, 3, 7, 50, 313, 1000, 5} {
		rng := rand.New(rand.NewSource(int64(100 + m)))
		arms := NewArms(m)
		rounds := 60
		if m >= 1000 {
			rounds = 25
		}
		for round := 1; round <= rounds; round++ {
			k := 1 + rng.Intn(m)
			got := p.SelectK(round, arms, k)
			want := topKRef(ucbScores(arms, k), k)
			requireSameSelection(t, fmt.Sprintf("m=%d round=%d k=%d", m, round, k), got, want)

			played := rng.Intn(5)
			for j := 0; j < played; j++ {
				obs := []float64{coarse[rng.Intn(len(coarse))], coarse[rng.Intn(len(coarse))]}
				arms.Update(rng.Intn(m), obs)
			}
			if rng.Intn(10) == 0 && arms.ActiveCount() > 1 {
				arms.Deactivate(rng.Intn(m))
			}
			if rng.Intn(25) == 0 {
				// Bulk rewrite, as a snapshot restore does.
				if err := arms.Restore(arms.State()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestIncrementalUCBColdStartAndExhaustedMarket: the two all-tie
// extremes — every arm unobserved (+Inf everywhere) and every arm
// deactivated (-Inf everywhere) — must reproduce TopK's index-order
// tie-breaking.
func TestIncrementalUCBColdStartAndExhaustedMarket(t *testing.T) {
	arms := NewArms(10)
	p := &UCBGreedy{}
	requireSameSelection(t, "cold start", p.SelectK(1, arms, 4), []int{0, 1, 2, 3})

	for i := 0; i < 10; i++ {
		arms.Deactivate(i)
	}
	requireSameSelection(t, "all inactive", p.SelectK(2, arms, 3), []int{0, 1, 2})
}

// TestIncrementalUCBMixedInfinities: unobserved (+Inf) arms rank
// first in index order, then finite indices, then deactivated (-Inf)
// arms fill out an over-sized selection — exactly as the dense TopK
// ranks the same score vector.
func TestIncrementalUCBMixedInfinities(t *testing.T) {
	arms := NewArms(6)
	arms.Update(1, []float64{0.9, 0.9})
	arms.Update(4, []float64{0.2, 0.2})
	arms.Deactivate(0)
	arms.Deactivate(5)
	// Arms 2, 3 unobserved → +Inf; arm 1 beats arm 4; arms 0, 5 → -Inf.
	p := &UCBGreedy{}
	for k := 1; k <= 6; k++ {
		got := p.SelectK(1, arms, k)
		want := topKRef(ucbScores(arms, k), k)
		requireSameSelection(t, fmt.Sprintf("mixed k=%d", k), got, want)
	}
	requireSameSelection(t, "mixed k=6", p.SelectK(1, arms, 6), []int{2, 3, 1, 4, 0, 5})
}

// TestIncrementalUCBSteadyStateAllocFree: once warm, a select→play
// round costs zero heap allocations.
func TestIncrementalUCBSteadyStateAllocFree(t *testing.T) {
	arms := NewArms(300)
	obs := []float64{0.4, 0.6, 0.5}
	for i := 0; i < 300; i++ {
		arms.Update(i, obs)
	}
	p := &UCBGreedy{}
	round := 1
	p.SelectK(round, arms, 10) // size the buffers outside the measured region
	allocs := testing.AllocsPerRun(200, func() {
		round++
		for _, i := range p.SelectK(round, arms, 10) {
			obs[0] = 0.3 + 0.4*float64(i%2)
			arms.Update(i, obs)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SelectK allocates %v times per round, want 0", allocs)
	}
}

// TestIncrementalUCBLongRunEquivalence: drive a realistic CMAB loop
// (always play the selected set) for many rounds and require the one
// reused policy value to shadow the sort-based reference bit for bit,
// including after the ln t drift has reordered unplayed arms many
// times.
func TestIncrementalUCBLongRunEquivalence(t *testing.T) {
	const m, k = 120, 7
	rng := rand.New(rand.NewSource(77))
	arms := NewArms(m)
	p := &UCBGreedy{}
	truth := make([]float64, m)
	for i := range truth {
		truth[i] = rng.Float64()
	}
	obs := make([]float64, 3)
	for round := 1; round <= 2000; round++ {
		want := topKRef(ucbScores(arms, k), k)
		got := p.SelectK(round, arms, k)
		requireSameSelection(t, fmt.Sprintf("round %d", round), got, want)
		for _, i := range got {
			for j := range obs {
				if rng.Float64() < truth[i] {
					obs[j] = 1
				} else {
					obs[j] = 0
				}
			}
			arms.Update(i, obs)
		}
	}
}

// FuzzSelectK decodes an arbitrary estimator state — zero counts
// (+Inf indices), tied counts and means, inactive arms (-Inf), any
// 1 ≤ k ≤ M — and requires the selector to equal TopK over the
// per-arm Eq. 19 indices UCBAt gives, and TopK to equal the sort-based
// reference. One policy value selects twice, at k and at M+1−k, so a
// buffer sized by one selection is reused by the next.
//
// Layout: data[0] picks M (1..64), data[1] picks k, then three bytes
// per arm: count (0 means unobserved), mean level (five levels, so
// means tie), and the low bit of the third byte marks the arm
// inactive. Missing bytes read as zero.
func FuzzSelectK(f *testing.F) {
	f.Add([]byte{9, 3, 0, 0, 0, 4, 1, 0, 4, 2, 1, 1, 4, 0})
	f.Add([]byte{63, 10})
	f.Add([]byte{2, 1, 1, 4, 1, 1, 4, 1})
	f.Add([]byte{5, 5, 3, 2, 0, 3, 2, 0, 3, 2, 0, 0, 0, 1, 7, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		m := 1 + at(0)%64
		k := 1 + at(1)%m
		st := ArmsState{
			Count:    make([]int64, m),
			Mean:     make([]float64, m),
			Sum:      make([]float64, m),
			Inactive: make([]bool, m),
		}
		for i := 0; i < m; i++ {
			c := int64(at(2 + 3*i))
			mean := float64(at(3+3*i)%5) / 4
			if c == 0 {
				mean = 0
			}
			st.Count[i], st.Mean[i], st.Sum[i] = c, mean, mean*float64(c)
			st.Inactive[i] = at(4+3*i)&1 == 1
			st.Total += c
		}
		arms := NewArms(m)
		if err := arms.Restore(st); err != nil {
			t.Fatal(err)
		}
		p := &UCBGreedy{}
		for _, kk := range []int{k, m + 1 - k} {
			factor := arms.UCBFactor(kk)
			scores := make([]float64, m)
			for i := range scores {
				scores[i] = arms.UCBAt(i, factor)
			}
			want := TopK(scores, kk)
			ctx := fmt.Sprintf("m=%d k=%d", m, kk)
			requireSameSelection(t, ctx, p.SelectK(1, arms, kk), want)
			requireSameSelection(t, ctx+" reference", want, topKRef(ucbScores(arms, kk), kk))
		}
	})
}

// BenchmarkUCBGreedySelect times one select→play round on a trained
// estimator (every arm observed, distinct means) at the market sizes
// of the benchmark workloads (m20/k5, m300/k10) and one ten times
// larger.
func BenchmarkUCBGreedySelect(b *testing.B) {
	for _, c := range []struct{ m, k int }{{20, 5}, {300, 10}, {3000, 10}} {
		b.Run(fmt.Sprintf("m%d_k%d", c.m, c.k), func(b *testing.B) {
			arms := NewArms(c.m)
			rng := rand.New(rand.NewSource(4))
			obs := make([]float64, 3)
			for i := 0; i < c.m; i++ {
				for j := range obs {
					obs[j] = rng.Float64()
				}
				arms.Update(i, obs)
			}
			p := &UCBGreedy{}
			p.SelectK(1, arms, c.k)
			obs = []float64{0.5, 0.6, 0.4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range p.SelectK(i+2, arms, c.k) {
					arms.Update(s, obs)
				}
			}
		})
	}
}
