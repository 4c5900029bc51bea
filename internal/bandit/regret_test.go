package bandit

import (
	"math"
	"testing"

	"cmabhs/internal/numutil"
	"cmabhs/internal/rng"
)

func TestRegretTrackerConstruction(t *testing.T) {
	expected := []float64{0.9, 0.2, 0.7, 0.5, 0.4}
	r := NewRegretTracker(expected, 2, 10)
	opt := r.OptimalSet()
	if opt[0] != 0 || opt[1] != 2 {
		t.Fatalf("optimal set %v", opt)
	}
	// Δ_min = q_(2) − q_(3) = 0.7 − 0.5
	if !numutil.AlmostEqual(r.DeltaMin(), 0.2, 1e-12) {
		t.Errorf("DeltaMin = %v", r.DeltaMin())
	}
	// Δ_max = (0.9+0.7) − (0.2+0.4) = 1.0
	if !numutil.AlmostEqual(r.DeltaMax(), 1.0, 1e-12) {
		t.Errorf("DeltaMax = %v", r.DeltaMax())
	}
}

func TestRegretTrackerPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRegretTracker([]float64{0.5}, 2, 1) },
		func() { NewRegretTracker([]float64{0.5}, 0, 1) },
		func() { NewRegretTracker([]float64{0.5}, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegretAccounting(t *testing.T) {
	expected := []float64{0.9, 0.2, 0.7}
	r := NewRegretTracker(expected, 2, 10)
	// Optimal pick: zero regret.
	r.Record([]int{0, 2})
	if r.Regret() != 0 {
		t.Errorf("regret after optimal pick = %v", r.Regret())
	}
	if !numutil.AlmostEqual(r.ExpectedRevenue(), 16, 1e-12) { // (0.9+0.7)*10
		t.Errorf("revenue = %v", r.ExpectedRevenue())
	}
	// Non-optimal pick: regret 10·(1.6 − 1.1) = 5.
	r.Record([]int{0, 1})
	if !numutil.AlmostEqual(r.Regret(), 5, 1e-12) {
		t.Errorf("regret = %v", r.Regret())
	}
	if r.Rounds() != 2 {
		t.Errorf("rounds = %d", r.Rounds())
	}
}

// TestCounterUpdateRule exercises Eq. 37: exactly one counter (the
// least-counted selected seller) increments by L per non-optimal
// round; optimal rounds change nothing.
func TestCounterUpdateRule(t *testing.T) {
	expected := []float64{0.9, 0.8, 0.2, 0.1}
	r := NewRegretTracker(expected, 2, 10)
	r.Record([]int{0, 1}) // optimal
	for i := range expected {
		if r.Counter(i) != 0 {
			t.Fatalf("optimal round must not touch counters")
		}
	}
	r.Record([]int{0, 2}) // non-optimal; β_0 == β_2 == 0, ties pick first-min (seller 0)
	if got := r.Counter(0) + r.Counter(2); got != 10 {
		t.Fatalf("exactly one counter should gain L, got β0=%d β2=%d", r.Counter(0), r.Counter(2))
	}
	r.Record([]int{0, 2}) // the other one has the smaller counter now
	if r.Counter(0) != 10 || r.Counter(2) != 10 {
		t.Fatalf("least-counted rule violated: β0=%d β2=%d", r.Counter(0), r.Counter(2))
	}
	// Total counter mass equals L times the number of non-optimal rounds.
	var mass int64
	for i := range expected {
		mass += r.Counter(i)
	}
	if mass != 20 {
		t.Fatalf("counter mass = %d, want 20", mass)
	}
}

func TestBoundFiniteAndGrowsLogarithmically(t *testing.T) {
	expected := []float64{0.9, 0.8, 0.6, 0.4, 0.2}
	r := NewRegretTracker(expected, 2, 10)
	b1 := r.Bound(1000)
	b2 := r.Bound(100000)
	if math.IsInf(b1, 0) || b1 <= 0 {
		t.Fatalf("bound = %v", b1)
	}
	if !(b2 > b1) {
		t.Error("bound should grow with the horizon")
	}
	// Log growth: ratio should be far below the horizon ratio.
	if b2/b1 > 2 {
		t.Errorf("bound ratio %v looks super-logarithmic", b2/b1)
	}
}

func TestBoundDegenerateGap(t *testing.T) {
	// M == K: no non-optimal set exists, Δ_min = 0.
	r := NewRegretTracker([]float64{0.5, 0.6}, 2, 5)
	if !math.IsInf(r.Bound(1000), 1) {
		t.Error("degenerate gap should give +Inf bound")
	}
	if r.DeltaMin() != 0 || r.DeltaMax() != 0 {
		t.Error("gaps should be zero when M == K")
	}
}

// TestUCBGreedyRegretSublinear runs the full bandit loop (without the
// game layer) and checks the hallmark of Theorem 19: UCB-greedy
// regret grows sublinearly while random selection grows linearly.
func TestUCBGreedyRegretSublinear(t *testing.T) {
	src := rng.New(33)
	m, k, l := 20, 3, 5
	means := make([]float64, m)
	for i := range means {
		means[i] = src.Uniform(0.05, 0.95)
	}
	run := func(p Policy, rounds int) float64 {
		arms := NewArms(m)
		tracker := NewRegretTracker(means, k, l)
		obsSrc := src.Split(int64(rounds))
		// Initial exploration: every arm once (Algorithm 1, round 1).
		for i := 0; i < m; i++ {
			obs := make([]float64, l)
			for j := range obs {
				obs[j] = obsSrc.TruncNormal(means[i], 0.1, 0, 1)
			}
			arms.Update(i, obs)
		}
		for round := 2; round <= rounds; round++ {
			sel := p.SelectK(round, arms, k)
			tracker.Record(sel)
			for _, i := range sel {
				obs := make([]float64, l)
				for j := range obs {
					obs[j] = obsSrc.TruncNormal(means[i], 0.1, 0, 1)
				}
				arms.Update(i, obs)
			}
		}
		return tracker.Regret()
	}
	ucbShort := run(&UCBGreedy{}, 2000)
	ucbLong := run(&UCBGreedy{}, 8000)
	randShort := run(NewRandom(src.Split(1)), 2000)
	randLong := run(NewRandom(src.Split(2)), 8000)
	// Random is linear: 4x the rounds ≈ 4x the regret.
	if ratio := randLong / randShort; ratio < 3 || ratio > 5 {
		t.Errorf("random regret ratio %v, want ≈4", ratio)
	}
	// UCB is logarithmic: far less than 4x.
	if ratio := ucbLong / ucbShort; ratio > 2.5 {
		t.Errorf("UCB regret ratio %v, want ≪4", ratio)
	}
	// And UCB beats random outright.
	if !(ucbLong < randLong/4) {
		t.Errorf("UCB regret %v should be far below random %v", ucbLong, randLong)
	}
	// Theorem 19: regret stays below the bound.
	tracker := NewRegretTracker(means, k, l)
	if bound := tracker.Bound(8000); !(ucbLong < bound) {
		t.Errorf("regret %v exceeds Theorem 19 bound %v", ucbLong, bound)
	}
}

// TestCounterSchemeLemma18: run the UCB loop and check the Eq. 37
// counter bookkeeping against its defining properties and the Lemma
// 18 bound: the counter mass equals L times the number of non-optimal
// rounds, and each seller's counter stays below the lemma's
// (loose) bound.
func TestCounterSchemeLemma18(t *testing.T) {
	src := rng.New(55)
	m, k, l, n := 12, 3, 4, 4000
	means := make([]float64, m)
	for i := range means {
		means[i] = src.Uniform(0.05, 0.95)
	}
	arms := NewArms(m)
	tracker := NewRegretTracker(means, k, l)
	obsSrc := src.Split(9)
	observe := func(i int) {
		obs := make([]float64, l)
		for j := range obs {
			obs[j] = obsSrc.TruncNormal(means[i], 0.1, 0, 1)
		}
		arms.Update(i, obs)
	}
	for i := 0; i < m; i++ {
		observe(i)
	}
	nonOptimal := 0
	optSet := map[int]bool{}
	for _, i := range tracker.OptimalSet() {
		optSet[i] = true
	}
	p := &UCBGreedy{}
	for round := 2; round <= n; round++ {
		sel := p.SelectK(round, arms, k)
		tracker.Record(sel)
		isOpt := true
		for _, i := range sel {
			if !optSet[i] {
				isOpt = false
			}
		}
		if !isOpt {
			nonOptimal++
		}
		for _, i := range sel {
			observe(i)
		}
	}
	var mass int64
	for i := 0; i < m; i++ {
		mass += tracker.Counter(i)
	}
	if mass != int64(l*nonOptimal) {
		t.Fatalf("counter mass %d != L·(non-optimal rounds) = %d", mass, l*nonOptimal)
	}
	// Lemma 18: E[β_i] ≤ 4K²(K+1)ln(NKL)/Δmin² + 1 + tail. The bound
	// is per-seller; with the measured Δmin it is loose, so a strict
	// per-seller check is safe.
	lemma := 4*float64(k*k*(k+1))*math.Log(float64(n*k*l))/(tracker.DeltaMin()*tracker.DeltaMin()) +
		1 + math.Pi*math.Pi/3
	for i := 0; i < m; i++ {
		if float64(tracker.Counter(i)) > lemma {
			t.Fatalf("β_%d = %d exceeds Lemma 18 bound %v", i, tracker.Counter(i), lemma)
		}
	}
}
