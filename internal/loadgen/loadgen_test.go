package loadgen

import (
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"testing"
	"time"

	"cmabhs/internal/metrics"
	"cmabhs/internal/server"
)

// soak gates the expensive saturation sweep, mirroring the chaos
// suite's convention: go test ./internal/loadgen/ -soak
var soak = flag.Bool("soak", false, "run the long saturation sweep test")

// TestScheduleDeterminism pins the open-loop schedule to its seed:
// identical inputs must replay the identical schedule (arrival times,
// ops, and job picks), and a different seed must diverge.
func TestScheduleDeterminism(t *testing.T) {
	mix := DefaultMix()
	a := BuildSchedule(42, 200, 2*time.Second, mix, 8)
	b := BuildSchedule(42, 200, 2*time.Second, mix, 8)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	c := BuildSchedule(43, 200, 2*time.Second, mix, 8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical schedules")
	}

	// ~rate*duration arrivals, ordered in time, ops drawn from the mix.
	if n := len(a); n < 300 || n > 500 {
		t.Fatalf("%d arrivals for 200 req/s over 2s, want ~400", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	for i, arr := range a {
		if mix[arr.Op] <= 0 {
			t.Fatalf("arrival %d drew op %q with zero weight", i, arr.Op)
		}
		if arr.Job < 0 || arr.Job >= 8 {
			t.Fatalf("arrival %d job slot %d out of range", i, arr.Job)
		}
	}
}

// TestParseMix round-trips and rejects malformed inputs.
func TestParseMix(t *testing.T) {
	m, err := ParseMix("advance=70, status=15,create=5")
	if err != nil {
		t.Fatal(err)
	}
	if m[OpAdvance] != 70 || m[OpStatus] != 15 || m[OpCreate] != 5 {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"advance", "bogus=5", "advance=-1", "advance=0", ""} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if s := m.String(); s != "create=5,advance=70,status=15" {
		t.Fatalf("canonical form %q", s)
	}
}

// TestHistQuantiles sanity-checks the client-side latency histogram's
// conservative quantiles: never below the true value, within one
// bucket width above, and an exact max.
func TestHistQuantiles(t *testing.T) {
	h := metrics.NewHistogram(clientBuckets)
	for i := 1; i <= 1000; i++ {
		h.Observe((time.Duration(i) * time.Millisecond).Seconds())
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{{0.50, 0.5}, {0.99, 0.99}, {0.999, 0.999}} {
		got := s.Quantile(tc.q)
		if got < tc.want {
			t.Errorf("q%.3f = %v under-reports true %v", tc.q, got, tc.want)
		}
		if got > tc.want*clientGrowth*clientGrowth {
			t.Errorf("q%.3f = %v too far above true %v", tc.q, got, tc.want)
		}
	}
	if s.Max != 1 {
		t.Fatalf("max %v, want 1s", s.Max)
	}
}

// TestRunAgainstBroker drives a short fixed-rate profile against the
// real broker in-process and checks the report: traffic flowed, no
// 5xx, events were received, and the run cleaned up after itself.
func TestRunAgainstBroker(t *testing.T) {
	s := server.New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		Target:        ts.URL,
		Rate:          200,
		Duration:      2 * time.Second,
		Seed:          42,
		Jobs:          4,
		Subscribers:   1,
		Sellers:       10,
		K:             3,
		AdvanceRounds: 10,
		HTTPClient:    ts.Client(),
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Requests < 300 {
		t.Fatalf("requests %d, want ~400", rep.Requests)
	}
	if rep.Errors5xx != 0 || rep.Transport != 0 {
		t.Fatalf("errors: 5xx=%d transport=%d\n%s", rep.Errors5xx, rep.Transport, rep.Human())
	}
	if rep.OK == 0 || rep.P50S <= 0 || rep.P99S < rep.P50S {
		t.Fatalf("suspicious quantiles p50=%v p99=%v ok=%d", rep.P50S, rep.P99S, rep.OK)
	}
	if rep.Events.Received == 0 {
		t.Fatal("subscribers received no events despite advance traffic")
	}
	if len(rep.Routes) == 0 {
		t.Fatal("no per-route reports")
	}

	// The report must be JSON-serializable and the human table render.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	if rep.Human() == "" {
		t.Fatal("empty human report")
	}

	// Cleanup: no jobs left behind.
	n, err := auditJobs(ctx, Config{Target: ts.URL, HTTPClient: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%d jobs leaked after run", n)
	}
}

// TestRunDeterministicSchedule checks two runs with the same seed
// offer identical request streams (the response side varies, the
// arrival side must not): same total scheduled requests per op.
func TestRunDeterministicSchedule(t *testing.T) {
	count := func() map[Op]int {
		m := make(map[Op]int)
		for _, a := range BuildSchedule(7, 150, 3*time.Second, DefaultMix(), 4) {
			m[a.Op]++
		}
		return m
	}
	a, b := count(), count()
	for op, n := range a {
		if b[op] != n {
			t.Fatalf("op %s count %d vs %d", op, n, b[op])
		}
	}
}

// TestSweepSaturation (soak) steps the rate against the in-process
// broker until it saturates and checks the sweep found a knee.
func TestSweepSaturation(t *testing.T) {
	if !*soak {
		t.Skip("saturation sweep: pass -soak to run")
	}
	s := server.New()
	s.MaxConcurrentAdvances = 2 // tiny pool so the knee arrives fast
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := RunSweep(ctx, SweepConfig{
		Config: Config{
			Target:     ts.URL,
			Jobs:       4,
			Sellers:    10,
			K:          3,
			Seed:       42,
			HTTPClient: ts.Client(),
			Logf:       t.Logf,
		},
		StartRate:    100,
		Factor:       2,
		MaxSteps:     8,
		StepDuration: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no sweep steps")
	}
	t.Logf("sweep: sustained %.0f req/s, knee %.0f (saturated=%v)", res.Sustained, res.Knee, res.Saturated)
	if res.Saturated && res.Knee <= res.Sustained {
		t.Fatalf("knee %.0f not above sustained %.0f", res.Knee, res.Sustained)
	}
}
