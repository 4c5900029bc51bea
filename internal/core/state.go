package core

// This file implements the durable state layer of a live Mechanism:
// Snapshot exports every online accumulator — round cursor, quality
// estimators, regret tracker, Kahan-compensated profit sums, ledger
// balances and digest, and the position of every random stream — and
// Resume rebuilds a mechanism that continues the run round-for-round
// identically to one that was never interrupted.
//
// Everything derivable from the configuration (seller costs, quality
// means, bias matrices, K, bounds, the optimal set and gap constants
// of the regret tracker) is deliberately NOT persisted: Resume
// reconstructs it through NewMechanism from the same Config and then
// overwrites only the mutable state. That keeps snapshots small,
// makes version skew visible (a config change invalidates nothing
// silently — the state simply fails validation), and mirrors how the
// RNG layer works: streams are re-split from the seed, then fast-
// forwarded by restoring their exported positions.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"cmabhs/internal/bandit"
	"cmabhs/internal/market"
	"cmabhs/internal/numutil"
)

// StateVersion is the schema version written into every snapshot.
// Bump it whenever the State layout changes incompatibly; DecodeState
// and Resume refuse any other version with ErrStateVersion rather than
// guessing.
//
// Version 2 replaced the ledger's journal of every transfer with its
// constant-size fold (ledger.State). A version-1 state is refused, not
// migrated; an earlier release that still reads it rewrites it as
// version 2 on its next save.
const StateVersion = 2

// ErrStateVersion is wrapped by every error that refuses a state for
// its schema version.
var ErrStateVersion = errors.New("core: state version")

// State is the serializable snapshot of a live Mechanism.
type State struct {
	Version int    `json:"version"`
	Policy  string `json:"policy"` // policy name, checked on Resume

	Next         int    `json:"next"` // next round to play, 1-based
	Stopped      string `json:"stopped,omitempty"`
	RoundsPlayed int    `json:"rounds_played"`

	Arms        bandit.ArmsState    `json:"arms"`
	Tracker     bandit.TrackerState `json:"tracker"`
	PolicyState *bandit.PolicyState `json:"policy_state,omitempty"`
	Market      market.State        `json:"market"`

	Realized numutil.KahanState `json:"realized"`
	CumPoC   numutil.KahanState `json:"cum_poc"`
	CumPoP   numutil.KahanState `json:"cum_pop"`
	CumPoS   numutil.KahanState `json:"cum_pos"`
	Spend    numutil.KahanState `json:"spend"`
	AggSum   numutil.KahanState `json:"agg_sum"`

	AggRounds    int       `json:"agg_rounds"`
	NextCkpt     int       `json:"next_ckpt"`
	SellerTotals []float64 `json:"seller_totals"`

	Dynamic *bandit.DynamicRegretState `json:"dynamic,omitempty"`

	Rounds      []roundRecordWire `json:"rounds,omitempty"`
	Checkpoints []Checkpoint      `json:"checkpoints,omitempty"`
}

// roundRecordWire is RoundRecord with a JSON-safe AggRMSE: the field
// is NaN for rounds without a data layer, and JSON has no NaN — a nil
// pointer encodes it instead.
type roundRecordWire struct {
	Round         int       `json:"round"`
	Selected      []int     `json:"selected"`
	PJ            float64   `json:"pj"`
	P             float64   `json:"p"`
	Taus          []float64 `json:"taus"`
	TotalTau      float64   `json:"total_tau"`
	PoC           float64   `json:"poc"`
	PoP           float64   `json:"pop"`
	SellerProfits []float64 `json:"seller_profits"`
	NoTrade       bool      `json:"no_trade,omitempty"`
	Realized      float64   `json:"realized"`
	AggRMSE       *float64  `json:"agg_rmse,omitempty"`
}

func toWire(r RoundRecord) roundRecordWire {
	w := roundRecordWire{
		Round:         r.Round,
		Selected:      r.Selected,
		PJ:            r.PJ,
		P:             r.P,
		Taus:          r.Taus,
		TotalTau:      r.TotalTau,
		PoC:           r.PoC,
		PoP:           r.PoP,
		SellerProfits: r.SellerProfits,
		NoTrade:       r.NoTrade,
		Realized:      r.Realized,
	}
	if !math.IsNaN(r.AggRMSE) {
		v := r.AggRMSE
		w.AggRMSE = &v
	}
	return w
}

func fromWire(w roundRecordWire) RoundRecord {
	r := RoundRecord{
		Round:         w.Round,
		Selected:      w.Selected,
		PJ:            w.PJ,
		P:             w.P,
		Taus:          w.Taus,
		TotalTau:      w.TotalTau,
		PoC:           w.PoC,
		PoP:           w.PoP,
		SellerProfits: w.SellerProfits,
		NoTrade:       w.NoTrade,
		Realized:      w.Realized,
		AggRMSE:       math.NaN(),
	}
	if w.AggRMSE != nil {
		r.AggRMSE = *w.AggRMSE
	}
	return r
}

// Snapshot exports the mechanism's full mutable state. The snapshot
// is a deep copy — the mechanism may keep stepping afterwards without
// disturbing it.
func (m *Mechanism) Snapshot() *State {
	st := &State{
		Version:      StateVersion,
		Policy:       m.policy.Name(),
		Next:         m.next,
		Stopped:      m.stopped,
		RoundsPlayed: m.res.RoundsPlayed,
		Arms:         m.arms.State(),
		Tracker:      m.tracker.State(),
		Market:       m.mkt.State(),
		Realized:     m.realized.State(),
		CumPoC:       m.cumPoC.State(),
		CumPoP:       m.cumPoP.State(),
		CumPoS:       m.cumPoS.State(),
		Spend:        m.spend.State(),
		AggSum:       m.aggSum.State(),
		AggRounds:    m.aggRounds,
		NextCkpt:     m.nextCkpt,
		SellerTotals: append([]float64(nil), m.sellerTotals...),
	}
	if sp, ok := m.policy.(bandit.StatefulPolicy); ok {
		ps := sp.PolicyState()
		st.PolicyState = &ps
	}
	if m.dynTrack != nil {
		d := m.dynTrack.State()
		st.Dynamic = &d
	}
	for _, r := range m.res.Rounds {
		st.Rounds = append(st.Rounds, toWire(r))
	}
	st.Checkpoints = append([]Checkpoint(nil), m.res.Checkpoints...)
	return st
}

// validate checks the configuration-independent invariants of a
// decoded state. Configuration-dependent checks (population size,
// horizon, policy identity) happen in Resume.
func (s *State) validate() error {
	if s.Version != StateVersion {
		return versionError(s.Version)
	}
	if s.Policy == "" {
		return errors.New("core: state has no policy name")
	}
	if s.Next < 1 {
		return fmt.Errorf("core: state next round %d < 1", s.Next)
	}
	if s.RoundsPlayed < 0 || s.RoundsPlayed >= s.Next {
		return fmt.Errorf("core: state played %d rounds with next round %d", s.RoundsPlayed, s.Next)
	}
	if s.AggRounds < 0 || s.AggRounds > s.RoundsPlayed {
		return fmt.Errorf("core: state has %d aggregation rounds of %d played", s.AggRounds, s.RoundsPlayed)
	}
	if s.NextCkpt < 0 {
		return fmt.Errorf("core: state checkpoint cursor %d < 0", s.NextCkpt)
	}
	for i, w := range s.Rounds {
		if w.Round < 1 {
			return fmt.Errorf("core: state round record %d has round %d", i, w.Round)
		}
		if len(w.Taus) != len(w.Selected) || len(w.SellerProfits) != len(w.Selected) {
			return fmt.Errorf("core: state round record %d has mismatched slice lengths", i)
		}
	}
	return nil
}

// Encode serializes the state as JSON.
func (s *State) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// versionError refuses a state of schema version v.
func versionError(v int) error {
	return fmt.Errorf("%w %d, this build reads version %d", ErrStateVersion, v, StateVersion)
}

// DecodeState parses and validates a snapshot produced by Encode. It
// is strict on purpose: an unknown field, an unknown version, or an
// invariant violation is an error — never a silently zeroed field.
func DecodeState(data []byte) (*State, error) {
	// Loose version probe first, so a snapshot from a different schema
	// reports "version mismatch" instead of whichever unknown field the
	// strict decoder happens to trip on.
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("core: decode state: %w", err)
	}
	if probe.Version != StateVersion {
		return nil, versionError(probe.Version)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	st := &State{}
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("core: decode state: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// Resume rebuilds a live Mechanism from a configuration and a
// snapshot taken under that same configuration. The config and policy
// must match the originals: Resume reconstructs all structural data
// through NewMechanism and then overwrites the mutable state, erroring
// on any mismatch it can detect (policy name, population size, window
// width, stream presence, horizon).
func Resume(cfg *Config, policy bandit.Policy, st *State) (*Mechanism, error) {
	if st == nil {
		return nil, errors.New("core: nil state")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	m, err := NewMechanism(cfg, policy)
	if err != nil {
		return nil, err
	}
	if st.Policy != policy.Name() {
		return nil, fmt.Errorf("core: state was taken under policy %q, resuming with %q", st.Policy, policy.Name())
	}
	if st.Next > cfg.Market.Job.N+1 {
		return nil, fmt.Errorf("core: state next round %d beyond horizon N=%d", st.Next, cfg.Market.Job.N)
	}
	if len(st.SellerTotals) != cfg.Market.M() {
		return nil, fmt.Errorf("core: state covers %d sellers, config has %d", len(st.SellerTotals), cfg.Market.M())
	}
	if st.NextCkpt > len(cfg.Checkpoints) {
		return nil, fmt.Errorf("core: state checkpoint cursor %d beyond %d configured checkpoints", st.NextCkpt, len(cfg.Checkpoints))
	}
	if err := m.arms.Restore(st.Arms); err != nil {
		return nil, err
	}
	if err := m.tracker.Restore(st.Tracker); err != nil {
		return nil, err
	}
	sp, stateful := policy.(bandit.StatefulPolicy)
	if stateful != (st.PolicyState != nil) {
		return nil, fmt.Errorf("core: policy %q state does not match snapshot", policy.Name())
	}
	if st.PolicyState != nil {
		if err := sp.RestorePolicyState(*st.PolicyState); err != nil {
			return nil, err
		}
	}
	if err := m.mkt.Restore(st.Market); err != nil {
		return nil, err
	}
	if (m.dynTrack != nil) != (st.Dynamic != nil) {
		return nil, errors.New("core: dynamic-regret state does not match quality model")
	}
	if st.Dynamic != nil {
		if err := m.dynTrack.Restore(*st.Dynamic); err != nil {
			return nil, err
		}
	}
	m.realized.Restore(st.Realized)
	m.cumPoC.Restore(st.CumPoC)
	m.cumPoP.Restore(st.CumPoP)
	m.cumPoS.Restore(st.CumPoS)
	m.spend.Restore(st.Spend)
	m.aggSum.Restore(st.AggSum)
	m.aggRounds = st.AggRounds
	m.nextCkpt = st.NextCkpt
	copy(m.sellerTotals, st.SellerTotals)
	m.next = st.Next
	m.stopped = st.Stopped
	m.res.RoundsPlayed = st.RoundsPlayed
	for _, w := range st.Rounds {
		m.res.Rounds = append(m.res.Rounds, fromWire(w))
	}
	m.res.Checkpoints = append([]Checkpoint(nil), st.Checkpoints...)
	return m, nil
}
