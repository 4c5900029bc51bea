package faults

import (
	"encoding/json"
	"math"
	"testing"

	"cmabhs/internal/rng"
)

// TestZeroConfigInjectsNothing pins the fast path: a nil or
// zero-valued config builds no injector, and the nil injector's
// methods are total no-ops that consume no randomness.
func TestZeroConfigInjectsNothing(t *testing.T) {
	for _, cfg := range []*Config{nil, {}, {Seed: 42}} {
		inj, err := New(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			t.Fatalf("zero config %+v built injector %+v", cfg, inj)
		}
	}
	var inj *Injector
	if !inj.Delivers(1, 0, 5) || inj.DepartureRound(3) != 0 || inj.Corrupt(0, 0, 1, 0.5) != 0.5 {
		t.Fatal("nil injector injected something")
	}
	if inj.State() != nil {
		t.Fatal("nil injector exported state")
	}
	if !inj.Empty() {
		t.Fatal("nil injector not Empty")
	}
}

// TestGilbertElliottBurstiness checks the defining property of the
// channel: losses cluster. With a sticky bad state the conditional
// loss probability after a loss must exceed the marginal loss rate.
func TestGilbertElliottBurstiness(t *testing.T) {
	cfg := DeliveryConfig{GoodToBad: 0.05, BadToGood: 0.2, LossGood: 0.01, LossBad: 0.9}
	ge := NewGilbertElliott(cfg, 1, rng.New(7))
	const n = 200_000
	var losses, pairs, lossAfterLoss int
	prevLost := false
	for r := 0; r < n; r++ {
		lost := !ge.Deliver(r, 0)
		if lost {
			losses++
		}
		if prevLost {
			pairs++
			if lost {
				lossAfterLoss++
			}
		}
		prevLost = lost
	}
	marginal := float64(losses) / n
	conditional := float64(lossAfterLoss) / float64(pairs)
	if conditional < 2*marginal {
		t.Fatalf("no burstiness: P(loss|loss)=%.3f vs P(loss)=%.3f", conditional, marginal)
	}
	// Sanity: the marginal rate should be near the stationary mix
	// π_bad·LossBad + π_good·LossGood with π_bad = g2b/(g2b+b2g) = 0.2.
	want := 0.2*0.9 + 0.8*0.01
	if math.Abs(marginal-want) > 0.02 {
		t.Fatalf("marginal loss %.3f, want ≈%.3f", marginal, want)
	}
}

// TestIIDMatchesLegacyStream pins the backward-compatibility
// contract: the IID model must consume exactly one Float64 per check
// with the predicate draw <= rate, bit-identical to the historic
// market code.
func TestIIDMatchesLegacyStream(t *testing.T) {
	const seed, rate = 99, 0.7
	iid := NewIID(rate, rng.New(seed))
	ref := rng.New(seed)
	for r := 0; r < 1000; r++ {
		want := ref.Float64() <= rate
		if got := iid.Deliver(r, r%5); got != want {
			t.Fatalf("check %d: IID=%v legacy=%v", r, got, want)
		}
	}
}

// TestRenewalChurn checks departures are drawn at construction, are
// floored at MinRound, never change between calls, and occur at
// roughly the configured hazard.
func TestRenewalChurn(t *testing.T) {
	const sellers = 4000
	cfg := ChurnConfig{Rate: 0.01}
	ch := NewRenewalChurn(cfg, sellers, rng.New(3))
	var sum float64
	for i := 0; i < sellers; i++ {
		r := ch.DepartureRound(i)
		if r < 2 {
			t.Fatalf("seller %d departs at round %d, below the default floor", i, r)
		}
		if ch.DepartureRound(i) != r {
			t.Fatalf("seller %d departure round not stable", i)
		}
		sum += float64(r)
	}
	// Mean lifetime ≈ 1/rate = 100 (+ floor).
	if mean := sum / sellers; mean < 80 || mean > 125 {
		t.Fatalf("mean departure round %.1f, want ≈100", mean)
	}
}

// TestComposeChurn checks the earliest-positive-wins composition used
// to merge scripted departures with renewal churn.
func TestComposeChurn(t *testing.T) {
	a := Scripted([]int{0, 10, 5})
	b := Scripted([]int{7, 0, 9})
	c := ComposeChurn(a, b, nil)
	for i, want := range []int{7, 10, 5} {
		if got := c.DepartureRound(i); got != want {
			t.Fatalf("seller %d: composed departure %d, want %d", i, got, want)
		}
	}
	if ComposeChurn(nil, nil) != nil {
		t.Fatal("composing nothing should be nil")
	}
	one := ComposeChurn(a)
	for i := range a {
		if one.DepartureRound(i) != a.DepartureRound(i) {
			t.Fatal("composing one model changed its departures")
		}
	}
}

// TestStragglerDeadline checks the latency model: with no deadline
// stragglers are never late; with a tight one, roughly Prob·P(delay >
// deadline) of deliveries miss.
func TestStragglerDeadline(t *testing.T) {
	cfg := StragglerConfig{Prob: 0.5, MeanDelay: 2}
	st := NewStraggler(cfg, rng.New(5))
	for i := 0; i < 1000; i++ {
		if !st.OnTime(0) {
			t.Fatal("straggler late with no deadline")
		}
	}
	st = NewStraggler(cfg, rng.New(5))
	late := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if !st.OnTime(2) {
			late++
		}
	}
	// P(late) = Prob · P(Exp(mean 2) > 2) = 0.5·e⁻¹ ≈ 0.184.
	want := 0.5 * math.Exp(-1)
	if got := float64(late) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("late rate %.3f, want ≈%.3f", got, want)
	}
}

// TestCorruptionModes checks both Byzantine behaviors: inflate adds a
// clamped bias without randomness; random replaces the observation.
func TestCorruptionModes(t *testing.T) {
	c := NewCorruption(CorruptionConfig{Sellers: []int{2}, Inflation: 0.3}, 5, rng.New(1), rng.New(2))
	if got := c.Corrupt(2, 0, 1, 0.5); got != 0.8 {
		t.Fatalf("inflate: got %v, want 0.8", got)
	}
	if got := c.Corrupt(2, 0, 1, 0.9); got != 1 {
		t.Fatalf("inflate clamp: got %v, want 1", got)
	}
	if got := c.Corrupt(1, 0, 1, 0.5); got != 0.5 {
		t.Fatalf("honest seller corrupted: %v", got)
	}
	if !c.Byzantine(2) || c.Byzantine(1) {
		t.Fatal("Byzantine membership wrong")
	}

	r := NewCorruption(CorruptionConfig{Fraction: 0.4, Mode: CorruptRandom}, 10, rng.New(1), rng.New(2))
	var byzantine []int
	for i := 0; i < 10; i++ {
		if r.Byzantine(i) {
			byzantine = append(byzantine, i)
		}
	}
	if n := len(byzantine); n != 4 {
		t.Fatalf("fraction 0.4 of 10 picked %d sellers", n)
	}
	byz := byzantine[0]
	a, b := r.Corrupt(byz, 0, 1, 0.5), r.Corrupt(byz, 0, 2, 0.5)
	if a == b {
		t.Fatalf("random mode returned identical draws %v", a)
	}
	if a < 0 || a > 1 || b < 0 || b > 1 {
		t.Fatalf("random corruption outside [0, 1]: %v %v", a, b)
	}
}

// TestStateRoundTrip checks that exporting an injector's live state
// mid-stream (through JSON) and restoring into a freshly built twin
// continues every model bit-identically.
func TestStateRoundTrip(t *testing.T) {
	cfg := &Config{
		Seed: 17,
		Delivery: DeliveryConfig{
			GoodToBad: 0.2, BadToGood: 0.3, LossGood: 0.05, LossBad: 0.8,
		},
		Churn:      ChurnConfig{Rate: 0.01},
		Straggler:  StragglerConfig{Prob: 0.3, MeanDelay: 1, Deadline: 2},
		Corruption: CorruptionConfig{Fraction: 0.3, Mode: CorruptRandom},
	}
	const sellers = 8
	a, err := New(cfg, sellers)
	if err != nil {
		t.Fatal(err)
	}
	// Burn in a non-trivial position on every stream.
	for r := 1; r <= 57; r++ {
		for i := 0; i < sellers; i++ {
			a.Delivers(r, i, 2)
			a.Corrupt(i, 0, r, 0.5)
		}
	}
	data, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, sellers)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&st); err != nil {
		t.Fatal(err)
	}
	for r := 58; r <= 120; r++ {
		for i := 0; i < sellers; i++ {
			if a.Delivers(r, i, 2) != b.Delivers(r, i, 2) {
				t.Fatalf("round %d seller %d: delivery diverged after restore", r, i)
			}
			if a.Corrupt(i, 0, r, 0.5) != b.Corrupt(i, 0, r, 0.5) {
				t.Fatalf("round %d seller %d: corruption diverged after restore", r, i)
			}
		}
		if a.DepartureRound(r%sellers) != b.DepartureRound(r%sellers) {
			t.Fatal("churn diverged after restore")
		}
	}
}

// TestRestoreMismatch checks structural mismatches are rejected, not
// silently absorbed.
func TestRestoreMismatch(t *testing.T) {
	withGE := &Config{Seed: 1, Delivery: DeliveryConfig{LossGood: 0.5}}
	noGE := &Config{Seed: 1, Straggler: StragglerConfig{Prob: 0.2, MeanDelay: 1}}
	a, err := New(withGE, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(noGE, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(a.State()); err == nil {
		t.Fatal("restoring channel state into channel-less injector succeeded")
	}
	if err := a.Restore(b.State()); err == nil {
		t.Fatal("restoring straggler state into straggler-less injector succeeded")
	}
}

// TestValidate spot-checks the validation surface.
func TestValidate(t *testing.T) {
	bad := []*Config{
		{Delivery: DeliveryConfig{LossGood: 1.5}},
		{Churn: ChurnConfig{Rate: -1}},
		{Straggler: StragglerConfig{Prob: 0.5}}, // missing MeanDelay
		{Corruption: CorruptionConfig{Fraction: 2}},
		{Corruption: CorruptionConfig{Sellers: []int{9}}}, // out of range
		{Corruption: CorruptionConfig{Fraction: 0.5, Mode: "garble"}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(5); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if err := allValid().Validate(5); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func allValid() *Config {
	return &Config{
		Seed:       9,
		Delivery:   DeliveryConfig{GoodToBad: 0.1, BadToGood: 0.5, LossBad: 0.9},
		Churn:      ChurnConfig{Rate: 0.02, MinRound: 5},
		Straggler:  StragglerConfig{Prob: 0.1, MeanDelay: 1},
		Corruption: CorruptionConfig{Fraction: 0.2},
	}
}
