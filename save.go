package cmabhs

// Durable sessions: Save serializes a live Session — configuration
// plus the full mutable state of the mechanism, market, and every
// random stream — and ResumeSession rebuilds a Session that continues
// the run round-for-round identically to one that was never
// interrupted. The snapshot is self-contained: because Config is
// plain serializable data, a saved session can be resumed by a
// different process (the broker service uses this to survive
// restarts).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"cmabhs/internal/core"
)

// SnapshotVersion is the schema version of the session snapshot
// envelope. The embedded mechanism state carries its own version
// (core.StateVersion); both are checked on resume.
const SnapshotVersion = 1

// sessionSnapshot is the wire envelope of a saved session, as
// resumeChecked reads it.
type sessionSnapshot struct {
	Version int             `json:"version"`
	Config  Config          `json:"config"`
	State   json.RawMessage `json:"state"`
}

// Save serializes the session's configuration and complete mutable
// state. The session remains live and may keep stepping; the snapshot
// is an independent deep copy.
//
// The envelope is assembled by hand around the two marshalled values:
// each is already compact and HTML-escaped, which is all json.Marshal
// of sessionSnapshot would do to them again, so the bytes are the same
// (testdata/session_save.sha256 pins them).
func (s *Session) Save() ([]byte, error) {
	st, err := s.mech.Snapshot().Encode()
	if err != nil {
		return nil, fmt.Errorf("cmabhs: save: %w", err)
	}
	cfg, err := json.Marshal(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("cmabhs: save: %w", err)
	}
	data := make([]byte, 0, len(cfg)+len(st)+48) // 48 holds the keys and the version
	data = append(data, `{"version":`...)
	data = strconv.AppendInt(data, SnapshotVersion, 10)
	data = append(data, `,"config":`...)
	data = append(data, cfg...)
	data = append(data, `,"state":`...)
	data = append(data, st...)
	return append(data, '}'), nil
}

// ResumeSession rebuilds a live Session from a Save snapshot. The
// decode is strict: a version mismatch, an unknown field, or a state
// that violates its invariants is an error — never a silently zeroed
// session.
//
// A snapshot in the shape Save writes is read in one strict pass
// (decodeCurrent). Anything else — a decode error, an unknown,
// repeated or case-folded key, trailing bytes, an older version —
// goes through resumeChecked, whose loose probes pick the error text.
func ResumeSession(data []byte) (*Session, error) {
	cfg, st, ok := decodeCurrent(data)
	if !ok {
		return resumeChecked(data)
	}
	ccfg, policy, err := cfg.build()
	if err != nil {
		return nil, err
	}
	mech, err := core.Resume(ccfg, policy, st)
	if err != nil {
		return nil, fmt.Errorf("cmabhs: resume: %w", err)
	}
	return &Session{mech: mech, cfg: cfg}, nil
}

// decodeCurrent decodes a snapshot of exactly the shape Save writes:
// one top-level object whose keys are version, config and state, each
// spelled exactly and present once, followed by nothing but
// whitespace, with both versions current. Each value is decoded
// straight into its type by one strict decoder. ok is false for any
// other input, which then takes resumeChecked; for every input taking
// this path resumeChecked reaches the same session or error.
func decodeCurrent(data []byte) (cfg Config, st *core.State, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return cfg, nil, false
	}
	var (
		version int
		state   core.State
		seen    [3]bool
	)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return cfg, nil, false
		}
		var (
			i int
			v any
		)
		switch key, _ := tok.(string); key {
		case "version":
			i, v = 0, &version
		case "config":
			i, v = 1, &cfg
		case "state":
			i, v = 2, &state
		default:
			return cfg, nil, false
		}
		if seen[i] {
			return cfg, nil, false
		}
		seen[i] = true
		if err := dec.Decode(v); err != nil {
			return cfg, nil, false
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return cfg, nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return cfg, nil, false
	}
	if seen != [3]bool{true, true, true} || version != SnapshotVersion || state.Version != core.StateVersion {
		return cfg, nil, false
	}
	return cfg, &state, true
}

// resumeChecked is the general resume path: a loose version probe,
// a strict decode of the envelope with the state left raw, then
// core.DecodeState.
func resumeChecked(data []byte) (*Session, error) {
	if len(data) == 0 {
		return nil, errors.New("cmabhs: resume: empty snapshot")
	}
	// Loose version probe first so schema skew reports as a version
	// mismatch rather than whichever unknown field trips the strict
	// decoder.
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("cmabhs: resume: %w", err)
	}
	if probe.Version != SnapshotVersion {
		return nil, fmt.Errorf("cmabhs: resume: snapshot version %d, this build reads version %d", probe.Version, SnapshotVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var snap sessionSnapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("cmabhs: resume: %w", err)
	}
	cfg, policy, err := snap.Config.build()
	if err != nil {
		return nil, err
	}
	st, err := core.DecodeState(snap.State)
	if err != nil {
		return nil, fmt.Errorf("cmabhs: resume: %w", err)
	}
	mech, err := core.Resume(cfg, policy, st)
	if err != nil {
		return nil, fmt.Errorf("cmabhs: resume: %w", err)
	}
	return &Session{mech: mech, cfg: snap.Config}, nil
}
