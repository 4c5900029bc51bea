package chaos

import (
	"bytes"
	"context"
	"math"
	"testing"

	"cmabhs"
	"cmabhs/internal/bandit"
	"cmabhs/internal/core"
	"cmabhs/internal/telemetry"
	"cmabhs/internal/tracing"
)

// TestObserverBitIdentityUnderFaults is the observer passivity
// contract checked against the chaos harness: a mechanism running
// with every fault model active and a RoundObserver attached must
// stay bit-identical — cumulative metrics, estimates, AND encoded
// snapshots at every round boundary — to the same run unobserved.
func TestObserverBitIdentityUnderFaults(t *testing.T) {
	s := Scenario{M: 10, K: 3, Rounds: 60, Seed: 11, Faults: allFaults(101)}

	ctrl, err := core.NewMechanism(s.Config(), &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	var events []core.RoundEvent
	var failedTotal int
	cfg.Observer = func(ev *core.RoundEvent) {
		failedTotal += len(ev.Failed)
		cp := *ev
		cp.UCB = append([]float64(nil), ev.UCB...) // events are borrowed
		events = append(events, cp)
	}
	obs, err := core.NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}

	for !ctrl.Done() {
		if _, err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.Step(); err != nil {
			t.Fatal(err)
		}
		a, err := ctrl.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := obs.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshots diverged after round %d:\nctrl %s\nobs  %s", ctrl.Round()-1, a, b)
		}
	}
	if !obs.Done() {
		t.Fatal("observed run fell behind the control")
	}
	if err := Equivalent(ctrl.Result(), obs.Result()); err != nil {
		t.Fatal(err)
	}

	// The stream itself must be coherent: one event per played round,
	// UCB indices absent only for the initial exploration, and the
	// lossy channel must actually have produced fault events —
	// otherwise the identity check above proved too little.
	if len(events) != ctrl.Result().RoundsPlayed {
		t.Fatalf("%d events for %d rounds", len(events), ctrl.Result().RoundsPlayed)
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d carries round %d", i, ev.Round)
		}
		if i == 0 && ev.UCB != nil {
			t.Fatal("round 1 exploration should carry no UCB indices")
		}
		if i > 0 && len(ev.UCB) != s.M {
			t.Fatalf("round %d carries %d UCB indices, want %d", ev.Round, len(ev.UCB), s.M)
		}
	}
	if failedTotal == 0 {
		t.Fatal("kitchen-sink channel produced no fault events; scenario too tame")
	}
	last := events[len(events)-1]
	if last.Regret <= 0 || last.ExpectedRevenue <= 0 || last.ConsumerSpend <= 0 {
		t.Fatalf("final cumulative event not populated: %+v", last)
	}
}

// TestObserverTracingAndStreamingPassivity is the PR-5 strictness
// upgrade of the passivity contract, extended in PR-10: the observer
// now does real observability work — it records a tracing span per
// round, publishes each event into a bounded stream buffer that
// nobody drains (the slow-SSE-consumer worst case, so publishes drop
// once the buffer fills), AND feeds a telemetry ring recorder sized
// so compaction fires mid-run (the broker's series wiring) — and the
// mechanism must STILL produce encoded snapshots bit-identical to the
// unobserved control at every single round boundary, under every
// fault model at once.
func TestObserverTracingAndStreamingPassivity(t *testing.T) {
	s := Scenario{M: 10, K: 3, Rounds: 60, Seed: 11, Faults: allFaults(101)}

	ctrl, err := core.NewMechanism(s.Config(), &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}

	tr := tracing.NewSeeded(77, 8)
	ctx, root := tr.StartSpan(context.Background(), "chaos run")
	stream := make(chan int, 4) // bounded and never drained, like a stalled SSE client
	dropped := 0
	series := telemetry.NewRecorder(16) // small ring: downsampling must trigger over 60 rounds
	cfg := s.Config()
	cfg.Observer = func(ev *core.RoundEvent) {
		_, sp := tr.StartSpan(ctx, "round")
		sp.SetAttr("round", ev.Round)
		sp.SetAttr("failed", len(ev.Failed))
		sp.End()
		series.Record(telemetry.Point{
			Round:   ev.Round,
			Regret:  ev.Regret,
			Revenue: ev.ExpectedRevenue,
			Spend:   ev.ConsumerSpend,
			NoTrade: ev.Record.NoTrade,
			Failed:  len(ev.Failed),
		})
		select {
		case stream <- ev.Round:
		default:
			dropped++
		}
	}
	obs, err := core.NewMechanism(cfg, &bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}

	rounds := 0
	for !ctrl.Done() {
		if _, err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.Step(); err != nil {
			t.Fatal(err)
		}
		rounds++
		a, err := ctrl.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := obs.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshots diverged after round %d with tracing+streaming attached", rounds)
		}
	}
	root.End()
	if err := Equivalent(ctrl.Result(), obs.Result()); err != nil {
		t.Fatal(err)
	}

	// The observability side did real work, or the identity check
	// proved too little: the stream filled and dropped, and every
	// played round is a recorded span in the trace store.
	if dropped != rounds-cap(stream) {
		t.Fatalf("dropped %d events, want %d (rounds %d past a buffer of %d)",
			dropped, rounds-cap(stream), rounds, cap(stream))
	}
	detail, ok := tr.Store().Trace(root.TraceID().String())
	if !ok {
		t.Fatal("chaos trace not recorded")
	}
	if len(detail.Spans) != rounds+1 { // rounds + the root span
		t.Fatalf("%d spans recorded, want %d rounds + 1 root", len(detail.Spans), rounds)
	}
	// The ring recorder did real work too: it saw every round, it
	// compacted (60 rounds through 16 slots), and the series it kept is
	// coherent — strictly increasing rounds, nondecreasing cumulative
	// regret, newest round retained.
	if series.Rounds() != rounds {
		t.Fatalf("recorder saw %d rounds, want %d", series.Rounds(), rounds)
	}
	if series.Stride() < 2 {
		t.Fatalf("stride %d: compaction never fired, ring proved too little", series.Stride())
	}
	pts, _ := series.Series(0, 0)
	if len(pts) == 0 || len(pts) > 16 {
		t.Fatalf("series kept %d points, want (0,16]", len(pts))
	}
	if pts[len(pts)-1].Round != rounds {
		t.Fatalf("series tail at round %d, want %d", pts[len(pts)-1].Round, rounds)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Round <= pts[i-1].Round {
			t.Fatalf("series rounds not increasing at %d", i)
		}
		if pts[i].Regret < pts[i-1].Regret {
			t.Fatalf("cumulative regret decreased at round %d", pts[i].Round)
		}
	}
}

// TestObserverBitIdentityPublicSession checks the same contract one
// layer up: a cmabhs.Session with an observer attached produces the
// same Result and the same Save bytes as an unobserved one, and a
// resumed session re-instrumented via Observe keeps both properties.
func TestObserverBitIdentityPublicSession(t *testing.T) {
	mk := func() cmabhs.Config {
		cfg := cmabhs.RandomConfig(8, 3, 40, 3)
		cfg.Faults = &cmabhs.FaultConfig{
			Channel:   cmabhs.ChannelFaults{GoodToBad: 0.1, BadToGood: 0.5, LossBad: 0.7},
			Byzantine: cmabhs.ByzantineFaults{Fraction: 0.3},
		}
		return cfg
	}

	ctrl, err := cmabhs.NewSession(mk())
	if err != nil {
		t.Fatal(err)
	}
	obsCfg := mk()
	events := 0
	obsCfg.Observer = func(ev *cmabhs.RoundEvent) {
		events++
		if ev.Round.Round > 1 {
			for _, u := range ev.UCB {
				if !math.IsNaN(u) && u < 0 {
					t.Errorf("negative UCB index %g in round %d", u, ev.Round.Round)
				}
			}
		}
	}
	sess, err := cmabhs.NewSession(obsCfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ctrl.Advance(15); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(15); err != nil {
		t.Fatal(err)
	}
	a, err := ctrl.Save()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Save bytes diverged with an observer attached:\nctrl %s\nobs  %s", a, b)
	}

	// Resume the observed arm from its snapshot and re-instrument it.
	resumed, err := cmabhs.ResumeSession(b)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Observe(func(ev *cmabhs.RoundEvent) { events++ })
	if _, err := ctrl.Advance(0); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Advance(0); err != nil {
		t.Fatal(err)
	}
	ref, got := ctrl.Result(), resumed.Result()
	if got.RealizedRevenue != ref.RealizedRevenue || got.Regret != ref.Regret ||
		got.ConsumerProfit != ref.ConsumerProfit || got.ConsumerSpend != ref.ConsumerSpend ||
		got.Rounds != ref.Rounds {
		t.Fatalf("observed resumed run diverged:\nobs  %+v\nctrl %+v", got, ref)
	}
	if events != ref.Rounds {
		t.Fatalf("observer saw %d events over %d rounds", events, ref.Rounds)
	}
}

// ucbSpy records, for every round it selects in, the Eq. 19 index of
// each arm exactly as Arms.UCB returns it (NaN for withdrawn arms, the
// snapshot's marker), then delegates the selection.
type ucbSpy struct {
	inner bandit.Policy
	seen  map[int][]float64
}

func (s *ucbSpy) Name() string { return s.inner.Name() }

func (s *ucbSpy) SelectK(round int, arms *bandit.Arms, k int) []int {
	rec := make([]float64, arms.M())
	for i := range rec {
		if arms.Active(i) {
			rec[i] = arms.UCB(i, k)
		} else {
			rec[i] = math.NaN()
		}
	}
	s.seen[round] = rec
	return s.inner.SelectK(round, arms, k)
}

// TestObserverUCBMatchesArms: the observer's per-round index snapshot
// derives ln Σn once per round, and must still equal Arms.UCB bit for
// bit for every seller, including after churn has withdrawn some.
func TestObserverUCBMatchesArms(t *testing.T) {
	s := Scenario{M: 12, K: 4, Rounds: 200, Seed: 5, Faults: allFaults(23)}
	spy := &ucbSpy{inner: &bandit.UCBGreedy{}, seen: map[int][]float64{}}
	cfg := s.Config()
	checked, withdrawn := 0, 0
	cfg.Observer = func(ev *core.RoundEvent) {
		if ev.UCB == nil {
			return // exploration round: nothing was ranked
		}
		want, ok := spy.seen[ev.Round]
		if !ok {
			t.Fatalf("round %d: observer saw indices the policy never ranked", ev.Round)
		}
		if len(ev.UCB) != len(want) {
			t.Fatalf("round %d: %d indices, want %d", ev.Round, len(ev.UCB), len(want))
		}
		for i, got := range ev.UCB {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("round %d seller %d: observer index %v, Arms.UCB %v", ev.Round, i, got, want[i])
			}
			if math.IsNaN(got) {
				withdrawn++
			}
		}
		checked++
	}
	m, err := core.NewMechanism(cfg, spy)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if checked != len(spy.seen) || checked < s.Rounds/2 {
		t.Fatalf("checked %d rounds, policy ranked %d", checked, len(spy.seen))
	}
	if withdrawn == 0 {
		t.Fatal("no seller churned out; the scenario does not cover withdrawn arms")
	}
}
