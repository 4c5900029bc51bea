package bandit

import (
	"math"
	"testing"

	"cmabhs/internal/rng"
)

func TestDeactivateBasics(t *testing.T) {
	arms := NewArms(4)
	if arms.ActiveCount() != 4 {
		t.Fatalf("ActiveCount = %d", arms.ActiveCount())
	}
	arms.Deactivate(1)
	arms.Deactivate(1) // idempotent
	if arms.ActiveCount() != 3 || arms.Active(1) {
		t.Fatal("deactivation wrong")
	}
	got := arms.ActiveIndices()
	want := []int{0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveIndices = %v", got)
		}
	}
	if !math.IsInf(arms.UCB(1, 3), -1) || !math.IsInf(arms.UCB1(1), -1) {
		t.Error("inactive arm must have -Inf indices")
	}
	// Statistics survive deactivation.
	arms.Update(1, []float64{0.5})
	if arms.Mean(1) != 0.5 {
		t.Error("stats should still update")
	}
	sm := arms.SelectableMeans()
	if !math.IsInf(sm[1], -1) || sm[0] != 0 {
		t.Errorf("SelectableMeans = %v", sm)
	}
	snap := arms.Snapshot()
	if snap.ActiveCount() != 3 || snap.Active(1) {
		t.Error("snapshot must copy the mask")
	}
}

// TestPoliciesRespectMask: no policy ever selects a deactivated arm.
func TestPoliciesRespectMask(t *testing.T) {
	src := rng.New(51)
	means := []float64{0.95, 0.9, 0.85, 0.2, 0.1}
	arms := seedArms(means, 50)
	// Kill the two best arms — the remaining top pair is {2, 3}.
	arms.Deactivate(0)
	arms.Deactivate(1)
	policies := []Policy{
		&UCBGreedy{},
		UCB1Greedy{},
		NewOracle(means),
		NewRandom(src.Split(1)),
		NewEpsilonFirst(0.5, 100, src.Split(2)),
		NewEpsilonGreedy(0.5, src.Split(3)),
		NewThompson(src.Split(4)),
	}
	for _, p := range policies {
		for round := 1; round <= 60; round++ {
			for _, i := range p.SelectK(round, arms, 2) {
				if i == 0 || i == 1 {
					t.Fatalf("%s selected deactivated arm %d", p.Name(), i)
				}
			}
		}
	}
	// Greedy policies agree the survivors' best pair is {2, 3}.
	got := (&UCBGreedy{}).SelectK(99, arms, 2)
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("UCB picked %v, want [2 3]", got)
	}
	oracle := NewOracle(means).SelectK(99, arms, 2)
	if oracle[0] != 2 || oracle[1] != 3 {
		t.Errorf("oracle picked %v, want [2 3]", oracle)
	}
}

func TestOracleCacheUnaffectedByMasklessRuns(t *testing.T) {
	means := []float64{0.1, 0.9, 0.5}
	o := NewOracle(means)
	arms := NewArms(3)
	first := o.SelectK(1, arms, 2)
	arms.Deactivate(1) // best arm leaves
	second := o.SelectK(2, arms, 2)
	if second[0] != 2 || second[1] != 0 {
		t.Fatalf("post-churn oracle picked %v", second)
	}
	// And going back to a fresh mask-free estimator, the cache path
	// still returns the original set.
	third := o.SelectK(3, NewArms(3), 2)
	if third[0] != first[0] || third[1] != first[1] {
		t.Fatalf("cache corrupted: %v vs %v", third, first)
	}
}
