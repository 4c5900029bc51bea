package cmabhs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
// the inputs it must leave to resumeChecked do not.
func TestDecodeCurrentTakesSaves(t *testing.T) {
	valid := resumeFuzzSave(t, 5)
	if _, _, ok := decodeCurrent(valid); !ok {
		t.Fatal("a save does not take the one-pass decode")
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
