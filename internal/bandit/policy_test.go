package bandit

import (
	"testing"

	"cmabhs/internal/rng"
)

// seedArms returns an estimator with each arm observed a few times at
// its true mean.
func seedArms(means []float64, obsPerArm int) *Arms {
	arms := NewArms(len(means))
	for i, m := range means {
		batch := make([]float64, obsPerArm)
		for j := range batch {
			batch[j] = m
		}
		arms.Update(i, batch)
	}
	return arms
}

func TestUCBGreedyPrefersUnobserved(t *testing.T) {
	arms := NewArms(5)
	arms.Update(0, []float64{0.9})
	arms.Update(1, []float64{0.95})
	arms.Update(2, []float64{0.99})
	// Arms 3 and 4 unobserved => infinite UCB => always selected.
	got := (&UCBGreedy{}).SelectK(2, arms, 2)
	if !(contains(got, 3) && contains(got, 4)) {
		t.Fatalf("unobserved arms should be explored first, got %v", got)
	}
}

func TestUCBGreedyExploitsWithEqualCounts(t *testing.T) {
	means := []float64{0.1, 0.9, 0.5, 0.8, 0.3}
	arms := seedArms(means, 100)
	got := (&UCBGreedy{}).SelectK(2, arms, 2)
	// Equal counts: UCB order == mean order.
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestOracleAlwaysOptimal(t *testing.T) {
	expected := []float64{0.2, 0.9, 0.4, 0.7}
	o := NewOracle(expected)
	arms := NewArms(4) // oracle ignores estimates
	first := o.SelectK(1, arms, 2)
	if first[0] != 1 || first[1] != 3 {
		t.Fatalf("oracle picked %v", first)
	}
	// Stable across rounds. SelectK results are borrowed (the oracle
	// serves its cached set without copying), so the repeat call must
	// return the same selection — and may share the same backing.
	second := o.SelectK(2, arms, 2)
	if second[0] != 1 || second[1] != 3 {
		t.Fatalf("oracle selection unstable: %v", second)
	}
	// Changing K invalidates the cache.
	three := o.SelectK(3, arms, 3)
	if len(three) != 3 || three[2] != 2 {
		t.Fatalf("oracle K=3 picked %v", three)
	}
	if o.Name() != "optimal" {
		t.Errorf("name %q", o.Name())
	}
}

func TestRandomSelectsValidSets(t *testing.T) {
	r := NewRandom(rng.New(9))
	arms := NewArms(10)
	counts := make([]int, 10)
	for round := 0; round < 3000; round++ {
		got := r.SelectK(round, arms, 3)
		if len(got) != 3 {
			t.Fatalf("len = %d", len(got))
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= 10 || seen[i] {
				t.Fatalf("invalid selection %v", got)
			}
			seen[i] = true
			counts[i]++
		}
	}
	// Uniformity: each arm expected 900 picks.
	for i, c := range counts {
		if c < 700 || c > 1100 {
			t.Errorf("arm %d picked %d times; selection not uniform", i, c)
		}
	}
}

func TestEpsilonFirstPhases(t *testing.T) {
	means := []float64{0.1, 0.9, 0.5, 0.8}
	arms := seedArms(means, 10)
	p := NewEpsilonFirst(0.5, 100, rng.New(10))
	// Exploration phase: selections vary.
	varied := false
	prev := p.SelectK(1, arms, 2)
	for round := 2; round <= 50; round++ {
		got := p.SelectK(round, arms, 2)
		if got[0] != prev[0] || got[1] != prev[1] {
			varied = true
		}
		prev = got
	}
	if !varied {
		t.Error("exploration phase looks deterministic")
	}
	// Exploitation phase: greedy on means.
	for round := 51; round <= 100; round++ {
		got := p.SelectK(round, arms, 2)
		if got[0] != 1 || got[1] != 3 {
			t.Fatalf("round %d: exploitation picked %v", round, got)
		}
	}
	if p.Name() != "0.5-first" {
		t.Errorf("name %q", p.Name())
	}
}

func TestEpsilonFirstClampsEpsilon(t *testing.T) {
	if NewEpsilonFirst(-1, 10, rng.New(1)).Epsilon != 0 {
		t.Error("epsilon < 0 should clamp to 0")
	}
	if NewEpsilonFirst(2, 10, rng.New(1)).Epsilon != 1 {
		t.Error("epsilon > 1 should clamp to 1")
	}
}

func TestEpsilonGreedyMixes(t *testing.T) {
	means := []float64{0.1, 0.9, 0.5, 0.8}
	arms := seedArms(means, 10)
	p := NewEpsilonGreedy(0.3, rng.New(11))
	greedy, other := 0, 0
	for round := 0; round < 2000; round++ {
		got := p.SelectK(round, arms, 2)
		if got[0] == 1 && got[1] == 3 {
			greedy++
		} else {
			other++
		}
	}
	// Exploration rate 0.3 and random picks occasionally coincide with
	// the greedy set, so the greedy share is a bit above 0.7.
	frac := float64(greedy) / 2000
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("greedy fraction %v, want ≈0.7–0.75", frac)
	}
}

func TestThompsonConvergesToBestArms(t *testing.T) {
	means := []float64{0.2, 0.9, 0.4, 0.85, 0.1}
	arms := seedArms(means, 2000) // tight posteriors
	p := NewThompson(rng.New(12))
	hits := 0
	for round := 0; round < 200; round++ {
		got := p.SelectK(round, arms, 2)
		if (got[0] == 1 && got[1] == 3) || (got[0] == 3 && got[1] == 1) {
			hits++
		}
	}
	if hits < 190 {
		t.Errorf("Thompson with tight posteriors picked best pair only %d/200 times", hits)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
