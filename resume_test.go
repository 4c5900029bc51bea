package cmabhs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cmabhs/internal/core"
	"cmabhs/internal/jsonw/jsonwtest"
)

// resumeFuzzSave is a save of a session that carries every optional
// state block: an RNG-carrying policy, delivery failures, the data
// layer, per-round records and checkpoints.
func resumeFuzzSave(tb testing.TB, rounds int) []byte {
	tb.Helper()
	cfg := RandomConfig(12, 4, 60, 7)
	cfg.Policy = PolicyThompson
	cfg.DeliveryRate = 0.9
	cfg.CollectData = true
	cfg.KeepRounds = true
	cfg.Checkpoints = []int{3, 30}
	sess, err := NewSession(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Advance(rounds); err != nil {
		tb.Fatal(err)
	}
	data, err := sess.Save()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzResumeSession: for every input, ResumeSession and resumeChecked
// (the probe-first path, unchanged from before the one-pass decode)
// either return the same error text, or both succeed and the two
// resumed sessions save to the same bytes. The one-pass decode may
// neither accept what resumeChecked refuses nor explain a refusal
// differently.
func FuzzResumeSession(f *testing.F) {
	valid := resumeFuzzSave(f, 5)
	earlier := resumeFuzzSave(f, 2)
	stateOf := func(data []byte) []byte {
		var env struct{ State json.RawMessage }
		if err := json.Unmarshal(data, &env); err != nil {
			f.Fatal(err)
		}
		return env.State
	}
	replace := func(old, new string) []byte {
		if !bytes.Contains(valid, []byte(old)) {
			f.Fatalf("seed save has no %s", old)
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "session_v1_m20-k5-faults-r40.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[len(valid)/2:],
		append(append([]byte(nil), valid...), " x"...),
		append(append([]byte(nil), valid...), " \n"...),
		replace(`{"version":1,`, `{"version":2,`),
		replace(`"state":{"version":2,`, `"state":{"version":3,`),
		replace(`"config":{`, `"config":{"Extra":1,`),
		replace(`"state":{`, `"state":{"extra":1,`),
		append(append(append(valid[:len(valid)-1:len(valid)-1], `,"state":`...), stateOf(earlier)...), '}'),
		replace(`"state":`, `"STATE":`),
		replace(`"state":`, `"ſtate":`),
		bytes.Replace(valid, stateOf(valid), []byte("null"), 1),
		v1,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := ResumeSession(data)
		want, werr := resumeChecked(data)
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("ResumeSession error %v, resumeChecked error %v", gerr, werr)
			}
			return
		}
		a, aerr := got.Save()
		b, berr := want.Save()
		if fmt.Sprint(aerr) != fmt.Sprint(berr) || !bytes.Equal(a, b) {
			t.Fatalf("resumed sessions differ: save error %v vs %v\n%s\n%s", aerr, berr, a, b)
		}
	})
}

// TestDecodeCurrentTakesSaves: what Save writes takes the one-pass
// decode, so a resume pays for one strict pass and not for the probes;
// the inputs it must leave to resumeChecked do not. A save that missed
// the one-pass decode would still resume, through the fallback, so
// only this test shows the miss: it checks the fuzz seed's save and
// the save of every configuration behind testdata/session_save.sha256.
func TestDecodeCurrentTakesSaves(t *testing.T) {
	valid := resumeFuzzSave(t, 5)
	if _, _, ok := decodeCurrent(valid); !ok {
		t.Fatal("a save does not take the one-pass decode")
	}
	for name, cfg := range goldenConfigs() {
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sess.Advance(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, ok := decodeCurrent(data); !ok {
			t.Errorf("%s: its save does not take the one-pass decode", name)
		}
	}
	if _, _, ok := decodeCurrent(append(append([]byte(nil), valid...), "\n"...)); !ok {
		t.Fatal("a save with a trailing newline does not take the one-pass decode")
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "session_v1_m20-k5-faults-r40.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"trailing garbage": append(append([]byte(nil), valid...), " x"...),
		"repeated key":     bytes.Replace(valid, []byte(`{"version":1,`), []byte(`{"version":1,"version":1,`), 1),
		"case-folded key":  bytes.Replace(valid, []byte(`"config":`), []byte(`"Config":`), 1),
		"version-1 state":  v1,
		"empty":            nil,
	} {
		if _, _, ok := decodeCurrent(data); ok {
			t.Errorf("%s takes the one-pass decode", name)
		}
	}
}

// TestResumeAllocatesOnePayload pins what a resume allocates beyond
// building a fresh session of the same configuration: at most the
// snapshot's own length in bytes, at the broker's two job shapes (an
// m20/k5 job at round 150 and an m300/k10 job at round 2500).
func TestResumeAllocatesOnePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation sizes")
	}
	// bytesPerOp is the least of three ten-run means: anything else
	// allocating meanwhile can only add to a mean.
	bytesPerOp := func(fn func()) uint64 {
		const runs = 10
		fn()
		least := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				fn()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	for _, tc := range []struct{ m, k, rounds int }{{20, 5, 150}, {300, 10, 2500}} {
		cfg := RandomConfig(tc.m, tc.k, 2*tc.rounds, 1)
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Advance(tc.rounds); err != nil {
			t.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatal(err)
		}
		fresh := bytesPerOp(func() {
			if _, err := NewSession(cfg); err != nil {
				t.Fatal(err)
			}
		})
		resume := bytesPerOp(func() {
			if _, err := ResumeSession(data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("m%d/k%d: resume %d B, new session %d B, snapshot %d B", tc.m, tc.k, resume, fresh, len(data))
		if resume > fresh+uint64(len(data)) {
			t.Errorf("m%d/k%d: resume allocates %d B, %d B past a new session's %d B; the snapshot is %d B",
				tc.m, tc.k, resume, resume-fresh, fresh, len(data))
		}
	}
}

// FuzzSaveEncoding holds Save's codec to encoding/json on filled
// configurations and states (internal/jsonw/jsonwtest reaches every
// field): appendSnapshot writes json.Marshal's bytes for the envelope,
// and State.Encode for the state, or fails with its error (the state's
// before the config's, as Save always has). What it
// writes decodeCurrent reads back as json.Unmarshal does, and whenever
// the bytes hold no escape and no non-ASCII byte, decodeCurrent takes
// them.
func FuzzSaveEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0})
	f.Add(bytes.Repeat([]byte{1, 5, 9, 200, 0xd3}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := jsonwtest.NewSource(data)
		var cfg Config
		src.Fill(&cfg)
		var st core.State
		src.Fill(&st)
		st.Version = core.StateVersion

		got, gotErr := st.Encode()
		want, wantErr := json.Marshal(&st)
		sameBytes(t, "state", got, gotErr, want, wantErr)

		// Save reports the state's encode error before the config's,
		// as it did when it marshalled the state first.
		got, gotErr = appendSnapshot(nil, &cfg, &st)
		if wantErr == nil {
			_, wantErr = json.Marshal(cfg)
		}
		want, _ = json.Marshal(struct {
			Version int         `json:"version"`
			Config  Config      `json:"config"`
			State   *core.State `json:"state"`
		}{SnapshotVersion, cfg, &st})
		sameBytes(t, "snapshot", got, gotErr, want, wantErr)
		if gotErr != nil {
			return
		}

		rcfg, rst, ok := decodeCurrent(got)
		if !ok {
			if !bytes.ContainsRune(got, '\\') && bytes.IndexFunc(got, func(r rune) bool { return r >= 0x80 }) < 0 {
				t.Fatalf("decodeCurrent refuses a plain snapshot:\n%s", got)
			}
			return
		}
		var env struct {
			Version int
			Config  Config
			State   core.State
		}
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("encoding/json refuses what decodeCurrent takes: %v\n%s", err, got)
		}
		if !reflect.DeepEqual(rcfg, env.Config) {
			t.Fatalf("config decodes to\n%+v\nencoding/json:\n%+v", rcfg, env.Config)
		}
		if !reflect.DeepEqual(*rst, env.State) {
			t.Fatalf("state decodes to\n%+v\nencoding/json:\n%+v", *rst, env.State)
		}
	})
}

// sameBytes fails t unless an appender's bytes and error are
// json.Marshal's: equal bytes, or errors with the same text.
func sameBytes(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got: %s\nwant: %s", what, got, want)
	}
}
