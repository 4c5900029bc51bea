package core

import (
	"context"
	"testing"

	"cmabhs/internal/bandit"
)

// TestAdvanceSteadyStateAllocFree pins the hot-path invariant of the
// allocation-free advance pipeline: once warm, a full trading round —
// churn schedule, the top-K selection scan, the closed-form
// Stackelberg game, collection, settlement, estimator updates, and
// observer dispatch — performs zero heap allocations. (The ledger
// keeps no journal: its record buffer for the digest is sized on the
// first settlement and reused.) Under delivery failures the round is
// also re-priced with the failed sellers' sensing time zeroed, on the
// same pooled buffers. The forgetting policies hold to it too: SW-UCB
// and D-UCB score into reused buffers, and SW-UCB's window keeps each
// arm's batch list in place as it evicts.
func TestAdvanceSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name         string
		deliveryRate float64
		policy       func() bandit.Policy
	}{
		{"m300-k10", 0, func() bandit.Policy { return &bandit.UCBGreedy{} }},
		{"m300-k10-delivery70", 0.7, func() bandit.Policy { return &bandit.UCBGreedy{} }},
		{"m300-k10-sw-ucb50", 0, func() bandit.Policy { return bandit.NewSlidingWindowUCB(50) }},
		{"m300-k10-d-ucb", 0, func() bandit.Policy { return bandit.NewDiscountedUCB(0.998) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, _ := testConfig(t, 300, 10, 1<<30, 3, 9)
			cfg.Market.DeliveryRate = tc.deliveryRate
			cfg.Market.DeliverySeed = 4
			var observed, failed int
			cfg.Observer = func(ev *RoundEvent) {
				observed = ev.Round
				failed += len(ev.Failed)
			}
			m, err := NewMechanism(cfg, tc.policy())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			// Warm every pool: round 1 explores the full population and
			// the following rounds size the steady-state buffers.
			if _, _, err := m.AdvanceN(ctx, 50, nil); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, _, err := m.AdvanceN(ctx, 1, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state advance allocates %v times per round, want 0", allocs)
			}
			if observed != m.Round()-1 {
				t.Fatalf("observer saw round %d, mechanism at %d", observed, m.Round())
			}
			if (failed > 0) != (tc.deliveryRate > 0) {
				t.Fatalf("%d failed deliveries at delivery rate %v", failed, tc.deliveryRate)
			}
		})
	}
}

// BenchmarkObservedRound times one steady-state round at m300/k10,
// unobserved and with an observer attached. The difference is the
// observer fan-out the mechanism pays itself, chiefly the Eq. 19 index
// snapshot of all M sellers.
func BenchmarkObservedRound(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "observer=off"
		if observed {
			name = "observer=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg, _ := buildTestConfig(300, 10, 1<<30, 10, 9)
			if observed {
				cfg.Observer = func(*RoundEvent) {}
			}
			m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, _, err := m.AdvanceN(ctx, 50, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.AdvanceN(ctx, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUCBSnapshot times the observer's Eq. 19 snapshot of all
// M = 300 sellers on its own, the layer BenchmarkObservedRound can only
// show as a difference of two noisy round times: the copy of a
// UCB-greedy policy's scores, and the separate scan any other policy
// still pays.
func BenchmarkUCBSnapshot(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy bandit.Policy
	}{{"policy=ucb-greedy", &bandit.UCBGreedy{}}, {"policy=ucb1", bandit.UCB1Greedy{}}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg, _ := buildTestConfig(300, 10, 1<<30, 10, 9)
			cfg.Observer = func(*RoundEvent) {}
			m, err := NewMechanism(cfg, tc.policy)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := m.AdvanceN(context.Background(), 50, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.snapshotUCB(cfg.K)
			}
		})
	}
}

// TestAdvanceNMatchesAdvanceContext: the batched fast path and the
// copying compatibility path must walk through identical rounds.
func TestAdvanceNMatchesAdvanceContext(t *testing.T) {
	cfgA, _ := testConfig(t, 20, 4, 60, 3, 11)
	cfgB, _ := testConfig(t, 20, 4, 60, 3, 11)
	a, err := NewMechanism(cfgA, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMechanism(cfgB, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var borrowedCopies []RoundRecord
	played, reason, err := a.AdvanceN(ctx, 60, func(rec *RoundRecord) {
		borrowedCopies = append(borrowedCopies, rec.Clone())
	})
	if err != nil || reason != "" {
		t.Fatalf("AdvanceN: played=%d reason=%q err=%v", played, reason, err)
	}
	recs, reason, err := b.AdvanceContext(ctx, 60)
	if err != nil || reason != "" {
		t.Fatalf("AdvanceContext: reason=%q err=%v", reason, err)
	}
	if played != len(recs) || played != len(borrowedCopies) {
		t.Fatalf("played %d rounds, AdvanceContext returned %d, callback saw %d", played, len(recs), len(borrowedCopies))
	}
	for i := range recs {
		got, want := borrowedCopies[i], recs[i]
		if got.Round != want.Round || got.PJ != want.PJ || got.P != want.P ||
			got.TotalTau != want.TotalTau || got.PoC != want.PoC || got.PoP != want.PoP ||
			got.Realized != want.Realized || got.NoTrade != want.NoTrade {
			t.Fatalf("round %d diverged:\n got %+v\nwant %+v", want.Round, got, want)
		}
		for j := range want.Selected {
			if got.Selected[j] != want.Selected[j] || got.Taus[j] != want.Taus[j] ||
				got.SellerProfits[j] != want.SellerProfits[j] {
				t.Fatalf("round %d seller slot %d diverged", want.Round, j)
			}
		}
	}
}
