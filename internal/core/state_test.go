package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cmabhs/internal/bandit"
	"cmabhs/internal/rng"
)

// recordsEqual compares RoundRecords tolerating NaN AggRMSE (NaN !=
// NaN defeats reflect.DeepEqual) while requiring bit-identity
// everywhere else.
func recordsEqual(a, b RoundRecord) bool {
	if a.Round != b.Round || a.PJ != b.PJ || a.P != b.P ||
		a.TotalTau != b.TotalTau || a.PoC != b.PoC || a.PoP != b.PoP ||
		a.NoTrade != b.NoTrade || a.Realized != b.Realized {
		return false
	}
	if !(a.AggRMSE == b.AggRMSE || (math.IsNaN(a.AggRMSE) && math.IsNaN(b.AggRMSE))) {
		return false
	}
	if len(a.Selected) != len(b.Selected) || len(a.Taus) != len(b.Taus) ||
		len(a.SellerProfits) != len(b.SellerProfits) {
		return false
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			return false
		}
	}
	for i := range a.Taus {
		if a.Taus[i] != b.Taus[i] {
			return false
		}
	}
	for i := range a.SellerProfits {
		if a.SellerProfits[i] != b.SellerProfits[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTripDeterminism is the correctness bar of the
// durable state layer: running rounds 1..n, snapshotting through a
// full JSON encode/decode, resuming into a FRESH mechanism, and
// continuing to N must be RoundRecord-identical to the uninterrupted
// run — across stateless, windowed, and RNG-carrying policies, over a
// market with transient delivery failures.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	policies := []struct {
		name string
		make func() bandit.Policy
	}{
		{"UCBGreedy", func() bandit.Policy { return &bandit.UCBGreedy{} }},
		{"SlidingWindowUCB", func() bandit.Policy { return bandit.NewSlidingWindowUCB(7) }},
		{"Thompson", func() bandit.Policy { return bandit.NewThompson(rng.New(99)) }},
	}
	const breakAt, horizon = 9, 30
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Config {
				cfg, _ := testConfig(t, 8, 3, horizon, 4, 5)
				cfg.Market.DeliveryRate = 0.85
				cfg.Market.DeliverySeed = 7
				cfg.KeepRounds = true
				cfg.Checkpoints = []int{5, 15, 25}
				return cfg
			}

			// Uninterrupted reference run.
			ref, err := Run(build(), tc.make())
			if err != nil {
				t.Fatal(err)
			}
			if ref.RoundsPlayed != horizon {
				t.Fatalf("reference played %d rounds", ref.RoundsPlayed)
			}

			// Interrupted run: break after breakAt rounds...
			m1, err := NewMechanism(build(), tc.make())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < breakAt; i++ {
				if _, err := m1.Step(); err != nil {
					t.Fatal(err)
				}
			}
			data, err := m1.Snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}

			// ...then resume from the wire bytes into a fresh world.
			st, err := DecodeState(data)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := Resume(build(), tc.make(), st)
			if err != nil {
				t.Fatal(err)
			}
			if m2.Round() != breakAt+1 {
				t.Fatalf("resumed at round %d, want %d", m2.Round(), breakAt+1)
			}
			for !m2.Done() {
				if _, err := m2.Step(); err != nil {
					t.Fatal(err)
				}
			}
			got := m2.Result()

			if len(got.Rounds) != len(ref.Rounds) {
				t.Fatalf("resumed run kept %d rounds, reference %d", len(got.Rounds), len(ref.Rounds))
			}
			for i := range ref.Rounds {
				if !recordsEqual(ref.Rounds[i], got.Rounds[i]) {
					t.Fatalf("round %d diverged:\nref %+v\ngot %+v", i+1, ref.Rounds[i], got.Rounds[i])
				}
			}
			if len(got.Checkpoints) != len(ref.Checkpoints) {
				t.Fatalf("checkpoints %d vs %d", len(got.Checkpoints), len(ref.Checkpoints))
			}
			for i := range ref.Checkpoints {
				if ref.Checkpoints[i] != got.Checkpoints[i] {
					t.Errorf("checkpoint %d diverged: %+v vs %+v", i, ref.Checkpoints[i], got.Checkpoints[i])
				}
			}
			if ref.RealizedRevenue != got.RealizedRevenue ||
				ref.ExpectedRevenue != got.ExpectedRevenue ||
				ref.Regret != got.Regret ||
				ref.CumPoC != got.CumPoC || ref.CumPoP != got.CumPoP || ref.CumPoS != got.CumPoS ||
				ref.ConsumerSpend != got.ConsumerSpend {
				t.Errorf("cumulative metrics diverged:\nref %+v\ngot %+v", ref, got)
			}
			for i := range ref.Estimates {
				if ref.Estimates[i] != got.Estimates[i] {
					t.Errorf("estimate %d: %v vs %v", i, ref.Estimates[i], got.Estimates[i])
				}
			}
			for i := range ref.SellerTotals {
				if ref.SellerTotals[i] != got.SellerTotals[i] {
					t.Errorf("seller total %d: %v vs %v", i, ref.SellerTotals[i], got.SellerTotals[i])
				}
			}
			// The resumed run's ledger must replay to the same balances.
			if w1, w2 := m1.Market().Ledger().Balance("platform"), m2.Market().Ledger().Balance("platform"); w1 == w2 {
				// m1 stopped at breakAt; equality is only expected for
				// the fully played reference, so just sanity-check the
				// resumed ledger is further along.
				t.Logf("ledger balances: interrupted %v, resumed %v", w1, w2)
			}
		})
	}
}

// TestSnapshotIsDeepCopy: stepping the mechanism after Snapshot must
// not disturb the exported state.
func TestSnapshotIsDeepCopy(t *testing.T) {
	cfg, _ := testConfig(t, 6, 2, 20, 3, 11)
	m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Snapshot()
	before, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("snapshot mutated by later steps")
	}
}

// TestResumeMismatches: a snapshot only resumes under its own
// configuration and policy; detectable mismatches are errors, not
// silent corruption.
func TestResumeMismatches(t *testing.T) {
	cfg, _ := testConfig(t, 6, 2, 20, 3, 11)
	m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Snapshot()

	fresh := func() *Config { c, _ := testConfig(t, 6, 2, 20, 3, 11); return c }

	if _, err := Resume(fresh(), bandit.NewThompson(rng.New(1)), st); err == nil {
		t.Error("policy mismatch not detected")
	}
	small, _ := testConfig(t, 4, 2, 20, 3, 11)
	if _, err := Resume(small, &bandit.UCBGreedy{}, st); err == nil {
		t.Error("population mismatch not detected")
	}
	short, _ := testConfig(t, 6, 2, 3, 3, 11)
	if _, err := Resume(short, &bandit.UCBGreedy{}, st); err == nil {
		t.Error("horizon mismatch not detected")
	}
	if _, err := Resume(fresh(), &bandit.UCBGreedy{}, nil); err == nil {
		t.Error("nil state not detected")
	}
	if ok, err := Resume(fresh(), &bandit.UCBGreedy{}, st); err != nil {
		t.Errorf("matching resume failed: %v", err)
	} else if ok.Round() != m.Round() {
		t.Errorf("resumed at %d, want %d", ok.Round(), m.Round())
	}
}

// TestDecodeStateStrict: version bumps, unknown fields, and invariant
// violations must all error.
func TestDecodeStateStrict(t *testing.T) {
	cfg, _ := testConfig(t, 5, 2, 15, 3, 3)
	m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := m.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeState(data); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	var loose map[string]json.RawMessage
	if err := json.Unmarshal(data, &loose); err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(map[string]json.RawMessage)) []byte {
		cp := make(map[string]json.RawMessage, len(loose))
		for k, v := range loose {
			cp[k] = v
		}
		mut(cp)
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	unknown := mutate(func(m map[string]json.RawMessage) { m["surprise"] = json.RawMessage(`"x"`) })
	if _, err := DecodeState(unknown); err == nil {
		t.Error("unknown field accepted")
	}
	negative := mutate(func(m map[string]json.RawMessage) { m["next"] = json.RawMessage("-3") })
	if _, err := DecodeState(negative); err == nil {
		t.Error("negative round cursor accepted")
	}
	if _, err := DecodeState(data[:len(data)/2]); err == nil {
		t.Error("truncated payload accepted")
	}

	// A bumped version is refused for it, and so is version 1, which
	// carried the ledger's journal, whether it holds a journal or the
	// current fold.
	foldInV1 := bytes.Replace(data, []byte(`"version":2`), []byte(`"version":1`), 1)
	for name, in := range map[string][]byte{
		"bumped":            mutate(func(m map[string]json.RawMessage) { m["version"] = json.RawMessage("99") }),
		"fixture":           v1FixtureState(t),
		"fold in version 1": foldInV1,
	} {
		if _, err := DecodeState(in); !errors.Is(err, ErrStateVersion) {
			t.Errorf("%s: DecodeState error %v, want ErrStateVersion", name, err)
		}
	}
	st, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	st.Version = 1
	if _, err := Resume(cfg, &bandit.UCBGreedy{}, st); !errors.Is(err, ErrStateVersion) {
		t.Errorf("Resume of a version-1 state: %v, want ErrStateVersion", err)
	}
}

// TestResultAvgGuards: the per-round averages must not emit NaN
// before any round has been played (regression: CumPoC/0 == NaN).
func TestResultAvgGuards(t *testing.T) {
	cfg, _ := testConfig(t, 5, 2, 10, 3, 1)
	m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if v := res.AvgPoC(); v != 0 || math.IsNaN(v) {
		t.Errorf("AvgPoC on empty run = %v, want 0", v)
	}
	if v := res.AvgPoP(); v != 0 || math.IsNaN(v) {
		t.Errorf("AvgPoP on empty run = %v, want 0", v)
	}
	if v := res.AvgPoSPerSeller(cfg.K); v != 0 || math.IsNaN(v) {
		t.Errorf("AvgPoSPerSeller on empty run = %v, want 0", v)
	}
	if v := (&Result{CumPoS: 1, RoundsPlayed: 1}).AvgPoSPerSeller(0); v != 0 {
		t.Errorf("AvgPoSPerSeller with k=0 = %v, want 0", v)
	}
}

// FuzzDecodeState: arbitrary corruptions of a snapshot must either
// decode to a valid state or error — never panic, and never produce a
// state that silently violates the invariants validate() enforces.
func FuzzDecodeState(f *testing.F) {
	cfg := func() *Config {
		c, _ := buildTestConfig(5, 2, 15, 3, 3)
		return c
	}
	m, err := NewMechanism(cfg(), &bandit.UCBGreedy{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Step(); err != nil {
			f.Fatal(err)
		}
	}
	valid, err := m.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"version":2`), []byte(`"version":3`), 1))
	f.Add(bytes.Replace(valid, []byte(`"next":`), []byte(`"nxet":`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add(v1FixtureState(f))
	f.Add(bytes.Replace(valid, []byte(`"version":2`), []byte(`"version":1`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			return
		}
		// Whatever decoded must satisfy the invariants...
		if verr := st.validate(); verr != nil {
			t.Fatalf("DecodeState returned invalid state: %v", verr)
		}
		// ...and resuming must never panic; errors are fine.
		mm, err := Resume(cfg(), &bandit.UCBGreedy{}, st)
		if err != nil {
			return
		}
		// A resumed ledger holds finite balances that conserve money.
		led := mm.Market().Ledger()
		for i, b := range led.State().Balances {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				t.Fatalf("resumed ledger balance %d is %v", i, b)
			}
		}
		imb, tol := led.TotalImbalance(), led.ImbalanceBound()
		if math.IsInf(tol, 0) || !(math.Abs(imb) <= tol) {
			t.Fatalf("resumed ledger residual %g over bound %g", imb, tol)
		}
		for i := 0; i < 3 && !mm.Done(); i++ {
			if _, err := mm.Step(); err != nil {
				return
			}
		}
	})
}

// v1FixtureState returns the mechanism state inside the checked-in
// version-1 session snapshot.
func v1FixtureState(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "session_v1_m20-k5-faults-r40.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var env struct{ State json.RawMessage }
	if err := json.Unmarshal(data, &env); err != nil {
		tb.Fatal(err)
	}
	return env.State
}
