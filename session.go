package cmabhs

import (
	"context"
	"fmt"

	"cmabhs/internal/core"
)

// Session is a live, stepwise market run: the same mechanism as Run,
// advanced one round at a time. It powers interactive uses — the
// broker HTTP service advances a Session as consumers poll — and
// lets callers inspect learning state mid-run. Not safe for
// concurrent use; guard it with a mutex when sharing.
type Session struct {
	mech  *core.Mechanism
	cfg   Config // the configuration the session was built from, for Save
	round Round  // the borrowed round AdvanceEach hands out
}

// NewSession validates the configuration and prepares a run without
// playing any rounds.
func NewSession(c Config) (*Session, error) {
	cfg, policy, err := c.build()
	if err != nil {
		return nil, err
	}
	mech, err := core.NewMechanism(cfg, policy)
	if err != nil {
		return nil, fmt.Errorf("cmabhs: %w", err)
	}
	return &Session{mech: mech, cfg: c}, nil
}

// Config returns the configuration the session was built from.
func (s *Session) Config() Config { return s.cfg }

// Observe attaches (or, with nil, clears) the per-round observer,
// taking effect from the next round played. Observers are strictly
// passive (see Config.Observer) and, being code, never travel in a
// Save snapshot — call Observe to re-instrument a session rebuilt by
// ResumeSession.
func (s *Session) Observe(obs RoundObserver) {
	s.cfg.Observer = obs
	s.mech.SetObserver(coreObserver(obs))
}

// Done reports whether the run has finished.
func (s *Session) Done() bool { return s.mech.Done() }

// NextRound returns the 1-based index of the next round to play.
func (s *Session) NextRound() int { return s.mech.Round() }

// Stopped returns the early-halt reason, or "".
func (s *Session) Stopped() string { return s.mech.Stopped() }

// Step plays one trading round and returns its record; (nil, nil)
// when the run is already done. The caller owns the returned record.
func (s *Session) Step() (*Round, error) {
	rec, err := s.mech.Step()
	if err != nil {
		return nil, fmt.Errorf("cmabhs: %w", err)
	}
	if rec == nil {
		return nil, nil
	}
	pub := publicRound(rec)
	r := pub.owned()
	return &r, nil
}

// Advance plays up to n rounds (n <= 0 means to completion). It is
// the background-context wrapper over AdvanceContext, which is the
// canonical form — see the package documentation's execution-model
// note.
func (s *Session) Advance(n int) (Advance, error) {
	return s.AdvanceContext(context.Background(), n)
}

// Advance is the outcome of a context-aware batch advance: the rounds
// actually played plus the reason the batch ended before playing all
// of them ("" normally, StoppedCanceled when the context was done at
// a round boundary).
type Advance struct {
	Played  []Round
	Stopped string
}

// AdvanceContext plays up to n rounds (n <= 0 means to completion),
// checking ctx before each round. Cancellation is not an error: the
// rounds already played are returned with Advance.Stopped set to
// StoppedCanceled, every one of them is kept in the session's
// cumulative state, and a later call with a live context resumes
// where this one left off. This is what lets a broker abort a
// long-running advance on client disconnect without losing progress.
// It is AdvanceEach with every round copied into Advance.Played.
func (s *Session) AdvanceContext(ctx context.Context, n int) (Advance, error) {
	var adv Advance
	_, stopped, err := s.AdvanceEach(ctx, n, func(r *Round) {
		adv.Played = append(adv.Played, r.owned())
	})
	adv.Stopped = stopped
	return adv, err
}

// AdvanceEach plays rounds exactly like AdvanceContext but hands each
// one to fn as it completes instead of collecting them. The *Round is
// borrowed, like an observer's RoundEvent: it and its slices are
// overwritten by the next round, so fn copies (or encodes) what it
// keeps. fn runs after the round's observer. It returns the number of
// rounds played and the early-stop reason ("" or StoppedCanceled).
func (s *Session) AdvanceEach(ctx context.Context, n int, fn func(*Round)) (played int, stopped string, err error) {
	played, stopped, err = s.mech.AdvanceN(ctx, n, func(rec *core.RoundRecord) {
		s.round = publicRound(rec)
		fn(&s.round)
	})
	if err != nil {
		err = fmt.Errorf("cmabhs: %w", err)
	}
	return played, stopped, err
}

// Estimates returns the current quality estimates q̄_i.
func (s *Session) Estimates() []float64 { return s.mech.Arms().Means() }

// Result snapshots the cumulative metrics so far; after Done it is
// the final result. PerRound and Checkpoints are populated the same
// way Run populates them (with Config.KeepRounds / Config.Checkpoints).
func (s *Session) Result() *Result {
	return publicResult(s.mech.Result())
}
