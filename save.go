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

	"cmabhs/internal/core"
	"cmabhs/internal/jsonw"
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
// The envelope, the configuration and the state are appended in one
// buffer by internal/jsonw's writer, byte for byte json.Marshal of the
// envelope holding both (testdata/session_save.sha256 pins them,
// FuzzSaveEncoding holds the writers to encoding/json). A NaN or an
// infinity is json.Marshal's error, the state's before the config's.
func (s *Session) Save() ([]byte, error) {
	// A save is about 210 bytes a seller plus 1.2 KB; a windowed
	// policy's batches or KeepRounds' records grow the buffer past it.
	buf := make([]byte, 0, 1536+224*len(s.cfg.Sellers))
	data, err := appendSnapshot(buf, &s.cfg, s.mech.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("cmabhs: save: %w", err)
	}
	return data, nil
}

// appendSnapshot appends json.Marshal of the sessionSnapshot holding
// cfg and st, or fails with json.Marshal's error.
func appendSnapshot(b []byte, cfg *Config, st *core.State) ([]byte, error) {
	w := jsonw.W{B: b}
	w.Raw(`{"version":`)
	w.Int(SnapshotVersion)
	w.Raw(`,"config":`)
	writeConfig(&w, cfg)
	cfgErr := w.Err
	w.Err = nil
	w.Raw(`,"state":`)
	st.WriteJSON(&w)
	w.B = append(w.B, '}')
	if w.Err == nil {
		w.Err = cfgErr
	}
	return w.B, w.Err
}

// ResumeSession rebuilds a live Session from a Save snapshot. The
// decode is strict: a version mismatch, an unknown field, or a state
// that violates its invariants is an error — never a silently zeroed
// session.
//
// A snapshot in the shape Save writes is read in one strict pass by
// decodeCurrent, the reader of the same codec Save writes with.
// Anything else — a decode error, an unknown, repeated or case-folded
// key, an escaped string, trailing bytes, an older version — goes
// through resumeChecked, whose loose probes pick the error text.
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

// decodeCurrent decodes a snapshot of exactly the shape Save writes,
// with internal/jsonw's strict reader: the keys version, config and
// state in that order, every nested key in Save's order and spelling,
// strings of plain ASCII, numbers in JSON's grammar and their field's
// range, both versions current, and nothing after but whitespace. ok
// is false for any other input, which then takes resumeChecked; for
// every input taking this path resumeChecked reaches the same session
// or error (FuzzResumeSession holds the two together).
func decodeCurrent(data []byte) (cfg Config, st *core.State, ok bool) {
	r := jsonw.NewReader(data)
	r.Open()
	r.Key("version")
	if r.Int() != SnapshotVersion {
		r.Fail()
	}
	r.Key("config")
	readConfig(r, &cfg)
	r.Key("state")
	st = core.ReadState(r)
	r.Close()
	return cfg, st, r.End()
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
