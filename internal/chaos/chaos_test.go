package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cmabhs"
	"cmabhs/internal/bandit"
	"cmabhs/internal/faults"
	"cmabhs/internal/rng"
	"cmabhs/internal/server"
)

// -soak unlocks the long schedule: more seeds, longer horizons,
// denser kill points. The default run keeps the same checks short
// enough for every CI invocation.
var soak = flag.Bool("soak", false, "run the long crash-recovery soak schedule")

// allFaults is the kitchen-sink fault layer: bursty channel, Poisson
// churn, stragglers with a hard deadline, and random Byzantine
// corruption — every live stream the snapshot layer must carry.
func allFaults(seed int64) *faults.Config {
	return &faults.Config{
		Seed: seed,
		Delivery: faults.DeliveryConfig{
			GoodToBad: 0.15, BadToGood: 0.4, LossGood: 0.02, LossBad: 0.6,
		},
		Churn:     faults.ChurnConfig{Rate: 0.004},
		Straggler: faults.StragglerConfig{Prob: 0.1, MeanDelay: 1.5, Deadline: 4},
		Corruption: faults.CorruptionConfig{
			Fraction: 0.25, Mode: faults.CorruptRandom,
		},
	}
}

// runSoak is the core kill/resume equivalence check shared by the
// short and long schedules.
func runSoak(t *testing.T, s Scenario, kills []int) {
	t.Helper()
	policy := func() bandit.Policy { return &bandit.UCBGreedy{} }
	ref, err := RunClean(s, policy())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	got, err := RunInterrupted(s, policy, kills)
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if err := Equivalent(ref, got); err != nil {
		t.Fatal(err)
	}
	if ref.RoundsPlayed == 0 {
		t.Fatal("scenario played no rounds; the check proved nothing")
	}
}

// TestCrashRecoveryUnderFaults kills and resumes a mechanism running
// with every fault model active, asserting invariants at every crash
// point and bit-identical equivalence with the uninterrupted control.
func TestCrashRecoveryUnderFaults(t *testing.T) {
	s := Scenario{M: 10, K: 3, Rounds: 60, Seed: 11, Faults: allFaults(101)}
	runSoak(t, s, []int{3, 17, 41})
}

// TestCrashRecoveryCleanMarket is the degenerate case: no faults at
// all. Recovery must be exact there too.
func TestCrashRecoveryCleanMarket(t *testing.T) {
	runSoak(t, Scenario{M: 8, K: 3, Rounds: 40, Seed: 5}, []int{9, 20})
}

// TestCrashRecoveryLegacyFailures covers the pre-fault-layer failure
// paths — scripted departures plus i.i.d. delivery loss — through the
// same kill/resume machinery.
func TestCrashRecoveryLegacyFailures(t *testing.T) {
	s := Scenario{
		M: 9, K: 3, Rounds: 50, Seed: 7,
		DeliveryRate: 0.8,
		Departures:   []int{0, 0, 25, 0, 0, 0, 0, 0, 12},
	}
	runSoak(t, s, []int{6, 30})
}

// TestSoakLong is the long schedule, gated behind -soak: a seed sweep
// with dense kill points over a longer horizon.
func TestSoakLong(t *testing.T) {
	if !*soak {
		t.Skip("short run; pass -soak for the full schedule")
	}
	for seed := int64(1); seed <= 8; seed++ {
		s := Scenario{M: 16, K: 5, Rounds: 400, Seed: seed, Faults: allFaults(seed * 31)}
		var kills []int
		src := rng.New(seed * 977)
		for r := 1; r < s.Rounds; r += 3 + int(src.Float64()*20) {
			kills = append(kills, r)
		}
		runSoak(t, s, kills)
	}
}

// TestSessionKillResume checks the public API layer: a cmabhs.Session
// with faults enabled, saved and resumed mid-run, must finish with a
// result identical to an uninterrupted Run of the same Config.
func TestSessionKillResume(t *testing.T) {
	cfg := cmabhs.RandomConfig(8, 3, 45, 3)
	cfg.Faults = &cmabhs.FaultConfig{
		Channel:   cmabhs.ChannelFaults{GoodToBad: 0.1, BadToGood: 0.5, LossBad: 0.7},
		Churn:     cmabhs.ChurnFaults{Rate: 0.005},
		Byzantine: cmabhs.ByzantineFaults{Fraction: 0.3},
	}
	ref, err := cmabhs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := cmabhs.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(12); err != nil {
		t.Fatal(err)
	}
	data, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	sess = nil // the process died here

	resumed, err := cmabhs.ResumeSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Advance(0); err != nil { // to completion
		t.Fatal(err)
	}
	got := resumed.Result()
	if got.Rounds != ref.Rounds || got.Stopped != ref.Stopped {
		t.Fatalf("rounds/stop diverged: %d/%q vs %d/%q", got.Rounds, got.Stopped, ref.Rounds, ref.Stopped)
	}
	if got.RealizedRevenue != ref.RealizedRevenue || got.ConsumerProfit != ref.ConsumerProfit ||
		got.PlatformProfit != ref.PlatformProfit || got.SellerProfit != ref.SellerProfit ||
		got.ConsumerSpend != ref.ConsumerSpend || got.Regret != ref.Regret {
		t.Fatalf("cumulative metrics diverged:\nresumed %+v\nclean   %+v", got, ref)
	}
	for i := range ref.Estimates {
		if got.Estimates[i] != ref.Estimates[i] {
			t.Fatalf("estimate %d diverged: %g vs %g", i, got.Estimates[i], ref.Estimates[i])
		}
	}
}

// TestBrokerKillResume checks the outermost layer: a broker with a
// FileStore is killed (SaveAll + new Server) mid-job and the reloaded
// job must finish identically to one advanced without interruption.
func TestBrokerKillResume(t *testing.T) {
	req := `{"random_sellers":12,"k":4,"rounds":70,"seed":9,` +
		`"faults":{"channel":{"good_to_bad":0.2,"bad_to_good":0.5,"loss_bad":0.8},` +
		`"byzantine":{"fraction":0.25,"mode":"random"}}}`

	// Control: one broker, one uninterrupted advance.
	ctrl := server.New()
	ctrlID := createJob(t, ctrl.Handler(), req)
	want := advanceAll(t, ctrl.Handler(), ctrlID, 70)

	// Crash arm: advance 20 rounds, snapshot to disk, "crash", load
	// into a brand-new broker, finish.
	dir := t.TempDir()
	store, err := server.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := server.New()
	s1.Store = store
	id := createJob(t, s1.Handler(), req)
	advanceN(t, s1.Handler(), id, 20)
	if err := s1.SaveAll(); err != nil {
		t.Fatal(err)
	}

	s2 := server.New()
	s2.Store = store
	if err := s2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	got := advanceAll(t, s2.Handler(), id, 70)

	if !bytes.Equal(want, got) {
		t.Fatalf("broker kill/resume diverged:\nclean   %s\nresumed %s", want, got)
	}
}

// createJob posts a job request and returns the new job id.
func createJob(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// advanceN advances a job by n rounds.
func advanceN(t *testing.T, h http.Handler, id string, n int) {
	t.Helper()
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(map[string]int{"rounds": n})
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+id+"/advance", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("advance status %d: %s", rec.Code, rec.Body)
	}
}

// advanceAll drives the job to completion and returns the final
// status JSON (the full result, canonical for byte comparison). The
// status envelope's "metrics" block is wall-clock throughput telemetry
// — legitimately different between a clean and a resumed broker — so
// it is stripped before the bytes are compared.
func advanceAll(t *testing.T, h http.Handler, id string, rounds int) []byte {
	t.Helper()
	advanceN(t, h, id, rounds)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	delete(st, "metrics")
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
