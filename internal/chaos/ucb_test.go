package chaos

import (
	"math"
	"testing"

	"cmabhs/internal/bandit"
	"cmabhs/internal/core"
)

// TestObserverUCBFromPolicyScores: with a bare UCB-greedy policy the
// mechanism copies the policy's own scores into the observer snapshot
// instead of scanning the arms a second time. The copy must equal the
// separate scan bit for bit — the one a wrapped policy still gets —
// every round, including after churn has withdrawn sellers (NaN).
func TestObserverUCBFromPolicyScores(t *testing.T) {
	s := Scenario{M: 12, K: 4, Rounds: 200, Seed: 5, Faults: allFaults(23)}
	run := func(policy bandit.Policy) [][]float64 {
		cfg := s.Config()
		var snaps [][]float64
		cfg.Observer = func(ev *core.RoundEvent) {
			snaps = append(snaps, append([]float64(nil), ev.UCB...)) // events are borrowed
		}
		m, err := core.NewMechanism(cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		for !m.Done() {
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return snaps
	}
	got := run(&bandit.UCBGreedy{})
	want := run(&ucbSpy{inner: &bandit.UCBGreedy{}, seen: map[int][]float64{}})
	if len(got) != len(want) || len(got) < s.Rounds/2 {
		t.Fatalf("%d observed rounds, want %d", len(got), len(want))
	}
	withdrawn := 0
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("event %d: %d indices, want %d", r, len(got[r]), len(want[r]))
		}
		for i, x := range got[r] {
			if math.Float64bits(x) != math.Float64bits(want[r][i]) {
				t.Fatalf("event %d seller %d: copied index %v, scanned %v", r, i, x, want[r][i])
			}
			if math.IsNaN(x) {
				withdrawn++
			}
		}
	}
	if withdrawn == 0 {
		t.Fatal("no seller churned out; the scenario does not cover withdrawn arms")
	}
}
