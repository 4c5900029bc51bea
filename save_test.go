package cmabhs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"cmabhs"
)

// saveTestConfig exercises every stateful subsystem at once: an
// RNG-carrying policy, transient delivery failures, the raw-data
// layer (sensor noise stream), per-round records, and checkpoints.
func saveTestConfig() cmabhs.Config {
	cfg := cmabhs.RandomConfig(12, 4, 60, 7)
	cfg.Policy = cmabhs.PolicyThompson
	cfg.DeliveryRate = 0.9
	cfg.CollectData = true
	cfg.KeepRounds = true
	cfg.Checkpoints = []int{10, 30, 50}
	return cfg
}

// resultsIdentical compares public Results tolerating NaN-valued
// metrics (NaN != NaN) but requiring bit-identity everywhere else.
func resultsIdentical(a, b *cmabhs.Result) bool {
	na, nb := *a, *b
	for _, p := range []*float64{&na.AggregationRMSE, &na.DynamicRegret} {
		if math.IsNaN(*p) {
			*p = -1
		}
	}
	for _, p := range []*float64{&nb.AggregationRMSE, &nb.DynamicRegret} {
		if math.IsNaN(*p) {
			*p = -1
		}
	}
	return reflect.DeepEqual(na, nb)
}

// TestSessionSaveResume: a run interrupted at various rounds, saved,
// and resumed must finish with a Result identical to the
// uninterrupted run.
func TestSessionSaveResume(t *testing.T) {
	ref, err := cmabhs.Run(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, breakAt := range []int{1, 17, 59} {
		sess, err := cmabhs.NewSession(saveTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Advance(breakAt); err != nil {
			t.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := cmabhs.ResumeSession(data)
		if err != nil {
			t.Fatalf("break at %d: %v", breakAt, err)
		}
		if resumed.NextRound() != breakAt+1 {
			t.Fatalf("break at %d: resumed at round %d", breakAt, resumed.NextRound())
		}
		if got := resumed.Config().Rounds; got != 60 {
			t.Fatalf("break at %d: resumed config has %d rounds", breakAt, got)
		}
		if _, err := resumed.Advance(0); err != nil {
			t.Fatal(err)
		}
		if !resumed.Done() {
			t.Fatalf("break at %d: resumed session not done", breakAt)
		}
		if got := resumed.Result(); !resultsIdentical(ref, got) {
			t.Errorf("break at %d: resumed result differs from uninterrupted run:\nref %+v\ngot %+v",
				breakAt, ref, got)
		}
	}
}

// TestSessionSaveIsStable: saving twice without stepping in between
// yields identical bytes, and saving does not perturb the run.
func TestSessionSaveIsStable(t *testing.T) {
	sess, err := cmabhs.NewSession(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(10); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("back-to-back saves differ")
	}
	if _, err := sess.Advance(0); err != nil {
		t.Fatal(err)
	}
	withSaves := sess.Result()
	ref, err := cmabhs.Run(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(ref, withSaves) {
		t.Error("saving mid-run perturbed the result")
	}
}

// TestResumeSessionErrors: malformed snapshots error instead of
// producing a corrupt session.
func TestResumeSessionErrors(t *testing.T) {
	sess, err := cmabhs.NewSession(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(5); err != nil {
		t.Fatal(err)
	}
	data, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cmabhs.ResumeSession(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := cmabhs.ResumeSession(data[:len(data)/3]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	bumped := bytes.Replace(data, []byte(`"version":1`), []byte(`"version":9`), 1)
	if _, err := cmabhs.ResumeSession(bumped); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version bump: got %v", err)
	}

	var loose map[string]json.RawMessage
	if err := json.Unmarshal(data, &loose); err != nil {
		t.Fatal(err)
	}
	loose["extra"] = json.RawMessage(`true`)
	withUnknown, err := json.Marshal(loose)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cmabhs.ResumeSession(withUnknown); err == nil {
		t.Error("unknown envelope field accepted")
	}
}

// TestResumeSessionEdges pins the inputs that leave the one-pass
// decode for the general path: whitespace after the snapshot is
// accepted and anything else refused, as json.Unmarshal would; and of
// a repeated "state" key the last one is resumed. (A version-1
// snapshot is the third such input; TestV1SnapshotRefused covers it.)
func TestResumeSessionEdges(t *testing.T) {
	save := func(rounds int) []byte {
		t.Helper()
		sess, err := cmabhs.NewSession(saveTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Advance(rounds); err != nil {
			t.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	early, late := save(3), save(9)
	with := func(data []byte, tail string) []byte {
		return append(append([]byte(nil), data...), tail...)
	}
	if s, err := cmabhs.ResumeSession(with(late, " \t\r\n")); err != nil || s.NextRound() != 10 {
		t.Fatalf("trailing whitespace: %v", err)
	}
	for _, tail := range []string{" x", "{}", "0", "\v"} {
		_, err := cmabhs.ResumeSession(with(late, tail))
		if err == nil || !strings.Contains(err.Error(), "after top-level value") {
			t.Errorf("trailing %q: got %v", tail, err)
		}
	}

	stateOf := func(data []byte) string {
		t.Helper()
		var env struct{ State json.RawMessage }
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		return string(env.State)
	}
	for _, c := range []struct {
		name        string
		base, extra []byte
		next        int
	}{
		{"early state repeated last", late, early, 4},
		{"late state repeated last", early, late, 10},
	} {
		dup := with(c.base[:len(c.base)-1], `,"state":`+stateOf(c.extra)+`}`)
		s, err := cmabhs.ResumeSession(dup)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s.NextRound() != c.next {
			t.Errorf("%s: resumed at round %d, want %d", c.name, s.NextRound(), c.next)
		}
	}
}

// TestResultAvgGuardsPublic: the public per-round averages must not
// emit NaN before any round has been played.
func TestResultAvgGuardsPublic(t *testing.T) {
	var r cmabhs.Result
	if v := r.AvgConsumerProfit(); v != 0 {
		t.Errorf("AvgConsumerProfit on empty result = %v", v)
	}
	if v := r.AvgPlatformProfit(); v != 0 {
		t.Errorf("AvgPlatformProfit on empty result = %v", v)
	}
	if v := r.AvgSellerProfit(3); v != 0 {
		t.Errorf("AvgSellerProfit on empty result = %v", v)
	}
}

// TestSaveResumeAtPaperHorizon: a session saved near the end of a
// 50k-round run (the paper's longest horizon) resumes and finishes
// exactly like the uninterrupted run. By then rounding has left the
// ledger's balances a nonzero distance from summing to zero; Resume's
// conservation check, whose bound grows with the run, must accept it.
func TestSaveResumeAtPaperHorizon(t *testing.T) {
	const horizon, at = 50000, 49990
	cfg := cmabhs.RandomConfig(20, 5, horizon, 17)
	ref, err := cmabhs.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Advance(at); err != nil {
		t.Fatal(err)
	}
	data, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		State struct {
			Market struct {
				Ledger struct{ Balances []float64 }
			}
		}
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	var residual float64
	for _, b := range snap.State.Market.Ledger.Balances {
		residual += b
	}
	if residual == 0 {
		t.Fatal("balances sum to exactly zero: the conservation bound is not exercised")
	}
	t.Logf("ledger residual after %d rounds: %g (%d-byte save)", at, residual, len(data))
	resumed, err := cmabhs.ResumeSession(data)
	if err != nil {
		t.Fatalf("resume at round %d: %v", at, err)
	}
	got, err := resumed.Advance(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Advance(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() || !ref.Done() {
		t.Fatal("runs not done at the horizon")
	}
	if g, w := mustJSON(t, got.Played), mustJSON(t, want.Played); !bytes.Equal(g, w) {
		t.Fatalf("resumed rounds differ from the uninterrupted run:\n%s\n%s", g, w)
	}
	a, err := resumed.Save()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("final saves differ")
	}
	if _, err := cmabhs.ResumeSession(b); err != nil {
		t.Fatalf("resume at the horizon: %v", err)
	}
}

// TestSaveSizeConstantInRounds: what a session persists does not grow
// with the rounds it has played. Over the first ~100 rounds the save
// still grows by a few KB as balances go from round 1's exploration
// payments (short decimals such as 5) to full-precision floats; after
// that only integer counters gain digits.
func TestSaveSizeConstantInRounds(t *testing.T) {
	sess, err := cmabhs.NewSession(cmabhs.RandomConfig(300, 10, 5000, 3))
	if err != nil {
		t.Fatal(err)
	}
	size := func(n int) int {
		t.Helper()
		if _, err := sess.Advance(n); err != nil {
			t.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	early := size(100)
	late := size(4900)
	if d := late - early; d < -2048 || d > 2048 {
		t.Fatalf("save is %d bytes after 100 rounds and %d after 5000", early, late)
	}
}
