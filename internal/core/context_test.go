package core

import (
	"context"
	"testing"

	"cmabhs/internal/bandit"
)

// TestAdvanceContextAlreadyCancelled: an advance with a dead context
// plays nothing, reports the cancellation reason, and leaves the run
// resumable.
func TestAdvanceContextAlreadyCancelled(t *testing.T) {
	cfg, _ := testConfig(t, 10, 3, 50, 5, 1)
	m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, reason, err := m.AdvanceContext(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || reason != StoppedCanceled {
		t.Fatalf("played %d rounds, reason %q; want 0, %q", len(recs), reason, StoppedCanceled)
	}
	if m.Done() || m.Stopped() != "" {
		t.Fatalf("cancellation must not finish the run: done=%v stopped=%q", m.Done(), m.Stopped())
	}
	// A live context resumes from round 1.
	recs, reason, err = m.AdvanceContext(context.Background(), 5)
	if err != nil || reason != "" || len(recs) != 5 {
		t.Fatalf("resume: %d rounds, reason %q, err %v", len(recs), reason, err)
	}
	if recs[0].Round != 1 || m.Round() != 6 {
		t.Fatalf("resume started at round %d, next now %d", recs[0].Round, m.Round())
	}
}

// TestAdvanceContextMidRunCancellation cancels deterministically from
// the per-round observer: the batch must stop at the next round
// boundary with the rounds played so far.
func TestAdvanceContextMidRunCancellation(t *testing.T) {
	cfg, _ := testConfig(t, 10, 3, 50, 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Observer = func(ev *RoundEvent) {
		if ev.Round == 3 {
			cancel()
		}
	}
	m, err := NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	recs, reason, err := m.AdvanceContext(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || reason != StoppedCanceled {
		t.Fatalf("played %d rounds, reason %q; want 3, %q", len(recs), reason, StoppedCanceled)
	}
	res := m.Result()
	if res.RoundsPlayed != 3 || res.RealizedRevenue <= 0 {
		t.Fatalf("partial result lost progress: %+v", res)
	}
}

// TestRunContextPartialResult: a cancelled full run returns the
// partial result with the canonical stop reason and no error.
func TestRunContextPartialResult(t *testing.T) {
	cfg, _ := testConfig(t, 10, 3, 1000, 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Observer = func(ev *RoundEvent) {
		if ev.Round == 7 {
			cancel()
		}
	}
	res, err := RunContext(ctx, cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsPlayed != 7 || res.Stopped != StoppedCanceled {
		t.Fatalf("rounds %d stopped %q", res.RoundsPlayed, res.Stopped)
	}
}

// TestRunContextBackground: with a background context RunContext is
// exactly Run.
func TestRunContextBackground(t *testing.T) {
	cfg, _ := testConfig(t, 8, 2, 30, 5, 1)
	a, err := RunContext(context.Background(), cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(func() *Config { c, _ := testConfig(t, 8, 2, 30, 5, 1); return c }(), &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RoundsPlayed != 30 || a.Stopped != "" {
		t.Fatalf("full run: %d rounds, stopped %q", a.RoundsPlayed, a.Stopped)
	}
	if a.RealizedRevenue != b.RealizedRevenue || a.Regret != b.Regret {
		t.Fatalf("RunContext diverged from Run: %v vs %v", a.RealizedRevenue, b.RealizedRevenue)
	}
}
