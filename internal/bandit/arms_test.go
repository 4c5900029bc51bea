package bandit

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cmabhs/internal/numutil"
)

func TestNewArmsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArms(0)
}

// TestArmsEstimatorIsSampleMean: the iterative Eq. 17–18 update must
// equal the plain arithmetic mean of every observation seen.
func TestArmsEstimatorIsSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arms := NewArms(3)
	var all [3][]float64
	for round := 0; round < 50; round++ {
		i := rng.Intn(3)
		batch := make([]float64, 1+rng.Intn(10))
		for j := range batch {
			batch[j] = rng.Float64()
		}
		all[i] = append(all[i], batch...)
		arms.Update(i, batch)
	}
	var total int64
	for i := 0; i < 3; i++ {
		if len(all[i]) == 0 {
			if arms.Count(i) != 0 || arms.Mean(i) != 0 {
				t.Errorf("arm %d should be untouched", i)
			}
			continue
		}
		if arms.Count(i) != int64(len(all[i])) {
			t.Errorf("arm %d count %d, want %d", i, arms.Count(i), len(all[i]))
		}
		if !numutil.AlmostEqual(arms.Mean(i), numutil.Mean(all[i]), 1e-12) {
			t.Errorf("arm %d mean %v, want %v", i, arms.Mean(i), numutil.Mean(all[i]))
		}
		total += int64(len(all[i]))
	}
	if arms.total != total {
		t.Errorf("total %d, want %d", arms.total, total)
	}
}

func TestArmsUpdateRejectsBadObservations(t *testing.T) {
	arms := NewArms(1)
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("observation %v should panic", bad)
				}
			}()
			arms.Update(0, []float64{bad})
		}()
	}
	arms.Update(0, nil) // no-op, no panic
	if arms.Count(0) != 0 {
		t.Error("nil batch should not count")
	}
}

func TestUCBProperties(t *testing.T) {
	arms := NewArms(2)
	if !math.IsInf(arms.UCB(0, 5), 1) {
		t.Error("unobserved arm must have +Inf UCB")
	}
	arms.Update(0, []float64{0.5, 0.5})
	arms.Update(1, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	// Same mean, fewer observations => larger UCB.
	if !(arms.UCB(0, 5) > arms.UCB(1, 5)) {
		t.Error("less-observed arm should have larger UCB")
	}
	// UCB exceeds the mean by exactly the confidence term.
	k := 5
	want := arms.Mean(0) + math.Sqrt(float64(k+1)*math.Log(float64(arms.total))/float64(arms.Count(0)))
	if !numutil.AlmostEqual(arms.UCB(0, k), want, 1e-12) {
		t.Errorf("UCB = %v, want %v", arms.UCB(0, k), want)
	}
	// Larger K widens the confidence.
	if !(arms.UCB(0, 10) > arms.UCB(0, 2)) {
		t.Error("larger K must widen the bound")
	}
	// UCB1 is finite and above the mean too.
	if u := arms.UCB1(0); !(u > arms.Mean(0)) || math.IsInf(u, 0) {
		t.Errorf("UCB1 = %v", u)
	}
}

// TestUCBAtMatchesPerArmFormula: the once-per-round factor reproduces
// the per-arm Eq. 19 expression bit for bit, ±Inf markers included.
func TestUCBAtMatchesPerArmFormula(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	arms := NewArms(40)
	for i := 0; i < arms.M(); i++ {
		if i%7 == 0 {
			continue // leave some arms unobserved
		}
		obs := make([]float64, 1+i%5)
		for l := range obs {
			obs[l] = src.Float64()
		}
		arms.Update(i, obs)
	}
	arms.Deactivate(3)
	arms.Deactivate(14) // unobserved and withdrawn: -Inf wins
	for _, k := range []int{1, 5, 10} {
		factor := arms.UCBFactor(k)
		logTotal := math.Log(float64(arms.total))
		for i := 0; i < arms.M(); i++ {
			var want float64
			switch {
			case !arms.Active(i):
				want = math.Inf(-1)
			case arms.Count(i) == 0:
				want = math.Inf(1)
			default:
				want = arms.Mean(i) + math.Sqrt(float64(k+1)*logTotal/float64(arms.Count(i)))
			}
			if got := arms.UCBAt(i, factor); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d arm %d: UCBAt %v, per-arm formula %v", k, i, got, want)
			}
			if got := arms.UCB(i, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d arm %d: UCB %v, per-arm formula %v", k, i, got, want)
			}
		}
	}
	if f := NewArms(2).UCBFactor(4); f != 0 {
		t.Errorf("factor with no observations = %v, want 0", f)
	}
}

// TestUCBConfidenceShrinks: the exploration term vanishes as an arm
// is observed more, so UCB converges to the sample mean.
func TestUCBConfidenceShrinks(t *testing.T) {
	arms := NewArms(1)
	// Past n=3, sqrt(ln n / n) is monotone decreasing; seed beyond the
	// ln(1)=0 cold-start artifact first.
	arms.Update(0, []float64{0.4, 0.4, 0.4, 0.4})
	prev := arms.UCB(0, 3) - arms.Mean(0)
	for batch := 0; batch < 12; batch++ {
		obs := make([]float64, 1<<batch)
		for i := range obs {
			obs[i] = 0.4
		}
		arms.Update(0, obs)
		conf := arms.UCB(0, 3) - arms.Mean(0)
		if conf >= prev {
			t.Fatalf("confidence did not shrink: %v -> %v", prev, conf)
		}
		prev = conf
	}
	if prev > 0.1 {
		t.Errorf("confidence should be small after ~4k samples, got %v", prev)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	arms := NewArms(2)
	arms.Update(0, []float64{0.3})
	snap := arms.Snapshot()
	arms.Update(0, []float64{0.9})
	arms.Update(1, []float64{0.1})
	if snap.Mean(0) != 0.3 || snap.Count(1) != 0 || snap.total != 1 {
		t.Error("snapshot shares state with the live estimator")
	}
}

// topKRef is the obvious sort-based reference implementation.
func topKRef(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

func TestTopKAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(n)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse values force plenty of ties.
			scores[i] = float64(rng.Intn(6))
		}
		got := TopK(scores, k)
		want := topKRef(scores, k)
		if len(got) != k {
			t.Fatalf("len = %d, want %d", len(got), k)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("TopK(%v, %d) = %v, want %v", scores, k, got, want)
			}
		}
	}
}

func TestTopKInfinities(t *testing.T) {
	scores := []float64{0.5, math.Inf(1), 0.2, math.Inf(1)}
	got := TopK(scores, 3)
	want := []int{1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	for _, k := range []int{0, -1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d should panic", k)
				}
			}()
			TopK([]float64{1, 2}, k)
		}()
	}
}

func TestTopKPropertyMembersDominate(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) {
				return true
			}
			scores[i] = v
		}
		k := 1 + int(kRaw)%len(scores)
		got := TopK(scores, k)
		in := make(map[int]bool, k)
		for _, i := range got {
			if in[i] {
				return false // duplicates
			}
			in[i] = true
		}
		// Every member's score >= every non-member's score.
		minIn := math.Inf(1)
		for i := range in {
			if scores[i] < minIn {
				minIn = scores[i]
			}
		}
		for i, s := range scores {
			if !in[i] && s > minIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTopK300x10(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	scores := make([]float64, 300)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(scores, 10)
	}
}
