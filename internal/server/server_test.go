package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// do issues a JSON request against the test server and decodes the
// response into out (if non-nil), returning the status code.
func do(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var out Healthz
	if code := do(t, ts, http.MethodGet, "/v1/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Status != "ok" {
		t.Errorf("body %+v", out)
	}
	if out.Version == "" {
		t.Error("healthz missing build version")
	}
	if out.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", out.UptimeSeconds)
	}
	if out.StateStore != "disabled" {
		t.Errorf("state store %q without a store configured", out.StateStore)
	}
}

func TestJobLifecycle(t *testing.T) {
	ts := newTestServer(t)

	// Create.
	var st JobStatus
	code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{
		RandomSellers: 20, K: 4, Rounds: 100, Seed: 7,
	}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if st.ID == "" || st.Sellers != 20 || st.NextRound != 1 || st.Done {
		t.Fatalf("created status %+v", st)
	}

	// Advance 10 rounds.
	var adv AdvanceResponse
	code = do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 10}, &adv)
	if code != http.StatusOK {
		t.Fatalf("advance status %d", code)
	}
	if len(adv.Played) != 10 || adv.Status.NextRound != 11 {
		t.Fatalf("advance %d rounds, next %d", len(adv.Played), adv.Status.NextRound)
	}
	// Round 1 is the initial exploration (all sellers selected).
	if len(adv.Played[0].Selected) != 20 {
		t.Errorf("round 1 selected %d", len(adv.Played[0].Selected))
	}
	if len(adv.Played[5].Selected) != 4 {
		t.Errorf("later rounds should select K=4, got %d", len(adv.Played[5].Selected))
	}

	// Status reflects progress.
	code = do(t, ts, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
	if code != http.StatusOK || st.Result.Rounds != 10 {
		t.Fatalf("status %d, rounds %d", code, st.Result.Rounds)
	}
	if st.Result.RealizedRevenue <= 0 {
		t.Error("revenue should accumulate")
	}

	// Estimates.
	var est struct {
		Estimates []float64 `json:"estimates"`
	}
	code = do(t, ts, http.MethodGet, "/v1/jobs/"+st.ID+"/estimates", nil, &est)
	if code != http.StatusOK || len(est.Estimates) != 20 {
		t.Fatalf("estimates %d (code %d)", len(est.Estimates), code)
	}

	// Run to completion.
	code = do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 1000}, &adv)
	if code != http.StatusOK || !adv.Status.Done {
		t.Fatalf("final advance code %d, done=%v", code, adv.Status.Done)
	}
	if len(adv.Played) != 90 {
		t.Errorf("remaining rounds %d, want 90", len(adv.Played))
	}

	// List contains the job.
	var list []JobStatus
	if code := do(t, ts, http.MethodGet, "/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list code %d len %d", code, len(list))
	}

	// Delete.
	if code := do(t, ts, http.MethodDelete, "/v1/jobs/"+st.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := do(t, ts, http.MethodGet, "/v1/jobs/"+st.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted job should 404, got %d", code)
	}
}

func TestJobCreationErrors(t *testing.T) {
	ts := newTestServer(t)
	v1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "session_v1_m20-k5-faults-r40.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  any
		want int
		msg  string // a substring of the error message, when set
	}{
		{"no sellers", JobRequest{K: 2, Rounds: 10}, http.StatusBadRequest, ""},
		{"no k", JobRequest{RandomSellers: 5, Rounds: 10}, http.StatusBadRequest, ""},
		{"no rounds", JobRequest{RandomSellers: 5, K: 2}, http.StatusBadRequest, ""},
		{"k > m", JobRequest{RandomSellers: 3, K: 5, Rounds: 10}, http.StatusBadRequest, ""},
		{"bad policy", JobRequest{RandomSellers: 5, K: 2, Rounds: 10, Policy: "wat"}, http.StatusBadRequest, ""},
		{"not json", "}{", http.StatusBadRequest, ""},
		{"version-1 snapshot", JobRequest{Snapshot: v1}, http.StatusBadRequest, "state version 1, this build reads version 2"},
	}
	for _, tc := range cases {
		var out ErrorResponse
		if code := do(t, ts, http.MethodPost, "/v1/jobs", tc.req, &out); code != tc.want {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, code, tc.want, out)
		}
		if out.Error.Code != "invalid_request" || out.Error.Message == "" {
			t.Errorf("%s: envelope %+v, want code invalid_request with a message", tc.name, out)
		}
		if !strings.Contains(out.Error.Message, tc.msg) {
			t.Errorf("%s: message %q, want it to name %q", tc.name, out.Error.Message, tc.msg)
		}
	}
	var list []JobStatus
	if code := do(t, ts, http.MethodGet, "/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("jobs after refused creates: status %d, %d jobs, want none", code, len(list))
	}
}

func TestExplicitSellersAndBudget(t *testing.T) {
	ts := newTestServer(t)
	req := JobRequest{
		Sellers: []SellerSpec{
			{CostQuadratic: 0.2, CostLinear: 0.1, ExpectedQuality: 0.9},
			{CostQuadratic: 0.3, CostLinear: 0.2, ExpectedQuality: 0.5},
			{CostQuadratic: 0.4, CostLinear: 0.3, ExpectedQuality: 0.7},
		},
		K: 2, Rounds: 10_000, Budget: 500, Seed: 3,
	}
	var st JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs", req, &st); code != http.StatusCreated {
		t.Fatalf("create %d", code)
	}
	var adv AdvanceResponse
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 10_000}, &adv); code != http.StatusOK {
		t.Fatalf("advance %d", code)
	}
	if !adv.Status.Done || adv.Status.Stopped != "budget exhausted" {
		t.Fatalf("status %+v", adv.Status)
	}
	if adv.Status.Result.ConsumerSpend < 500 {
		t.Errorf("spend %v below budget", adv.Status.Result.ConsumerSpend)
	}
}

func TestAdvanceDefaultsAndCap(t *testing.T) {
	srv := New()
	srv.MaxAdvance = 5
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var st JobStatus
	do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 5, K: 2, Rounds: 50}, &st)
	// Empty body => one round.
	var adv AdvanceResponse
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/"+st.ID+"/advance", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&adv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(adv.Played) != 1 {
		t.Fatalf("default advance played %d", len(adv.Played))
	}
	// Over-cap request clamps to MaxAdvance.
	do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 100}, &adv)
	if len(adv.Played) != 5 {
		t.Fatalf("capped advance played %d", len(adv.Played))
	}
}

func TestJobLimit(t *testing.T) {
	srv := New()
	srv.MaxJobs = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 5, K: 2, Rounds: 10}, nil); code != http.StatusCreated {
			t.Fatalf("create %d failed: %d", i, code)
		}
	}
	if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 5, K: 2, Rounds: 10}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("limit not enforced: %d", code)
	}
}

func TestSolveGameEndpoint(t *testing.T) {
	ts := newTestServer(t)
	req := SolveGameRequest{
		Sellers: []SellerSpec{
			{CostQuadratic: 0.2, CostLinear: 0.1, ExpectedQuality: 0.8},
			{CostQuadratic: 0.3, CostLinear: 0.2, ExpectedQuality: 0.6},
		},
	}
	var out struct {
		ConsumerPrice  float64   `json:"ConsumerPrice"`
		PlatformPrice  float64   `json:"PlatformPrice"`
		SensingTimes   []float64 `json:"SensingTimes"`
		ConsumerProfit float64   `json:"ConsumerProfit"`
		NoTrade        bool      `json:"NoTrade"`
	}
	if code := do(t, ts, http.MethodPost, "/v1/game/solve", req, &out); code != http.StatusOK {
		t.Fatalf("solve status %d", code)
	}
	if out.NoTrade || out.ConsumerPrice <= 0 || len(out.SensingTimes) != 2 {
		t.Fatalf("outcome %+v", out)
	}
	// Errors propagate as 400.
	if code := do(t, ts, http.MethodPost, "/v1/game/solve", SolveGameRequest{}, nil); code != http.StatusBadRequest {
		t.Error("empty game should 400")
	}
	if code := do(t, ts, http.MethodGet, "/v1/game/solve", nil, nil); code != http.StatusMethodNotAllowed {
		t.Error("GET should be rejected")
	}
}

// TestConcurrentAdvances hammers one job from several goroutines; the
// job mutex must serialize them and every round must be played
// exactly once.
func TestConcurrentAdvances(t *testing.T) {
	ts := newTestServer(t)
	var st JobStatus
	do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 10, K: 3, Rounds: 200, Seed: 5}, &st)
	var wg sync.WaitGroup
	played := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				var adv AdvanceResponse
				var buf bytes.Buffer
				fmt.Fprintf(&buf, `{"rounds": 7}`)
				resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+st.ID+"/advance", "application/json", &buf)
				if err != nil {
					t.Error(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&adv)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				played[w] += len(adv.Played)
				if adv.Status.Done {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, p := range played {
		total += p
	}
	if total != 200 {
		t.Fatalf("played %d rounds across workers, want exactly 200", total)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var st JobStatus
	do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 5, K: 2, Rounds: 20}, &st)
	var adv AdvanceResponse
	do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 7}, &adv)
	do(t, ts, http.MethodPost, "/v1/game/solve", SolveGameRequest{
		Sellers: []SellerSpec{{CostQuadratic: 0.2, CostLinear: 0.1, ExpectedQuality: 0.5}},
	}, nil)
	var stats map[string]int64
	if code := do(t, ts, http.MethodGet, "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats["jobs_created"] != 1 || stats["jobs_live"] != 1 {
		t.Errorf("job counters %v", stats)
	}
	if stats["rounds_advanced"] != 7 {
		t.Errorf("rounds_advanced = %d", stats["rounds_advanced"])
	}
	if stats["games_solved"] != 1 {
		t.Errorf("games_solved = %d", stats["games_solved"])
	}
	if code := do(t, ts, http.MethodPost, "/v1/stats", nil, nil); code != http.StatusMethodNotAllowed {
		t.Error("POST /v1/stats should be rejected")
	}
}

// TestListJobsPagination drives ?limit=/?after= paging: pages are
// sorted by id, strictly past `after`, capped at `limit`, and paging
// to exhaustion sees every job exactly once.
func TestListJobsPagination(t *testing.T) {
	ts := newTestServer(t)
	const n = 7
	for i := 0; i < n; i++ {
		if code := do(t, ts, http.MethodPost, "/v1/jobs",
			JobRequest{RandomSellers: 5, K: 2, Rounds: 10, Seed: int64(i + 1)}, nil); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
	}

	var all []JobStatus
	if code := do(t, ts, http.MethodGet, "/v1/jobs", nil, &all); code != http.StatusOK {
		t.Fatalf("unpaged list status %d", code)
	}
	if len(all) != n {
		t.Fatalf("unpaged list has %d jobs, want %d", len(all), n)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("list not sorted: %q before %q", all[i-1].ID, all[i].ID)
		}
	}

	var seen []string
	after := ""
	for {
		path := "/v1/jobs?limit=3"
		if after != "" {
			path += "&after=" + after
		}
		var page []JobStatus
		if code := do(t, ts, http.MethodGet, path, nil, &page); code != http.StatusOK {
			t.Fatalf("paged list status %d", code)
		}
		if len(page) > 3 {
			t.Fatalf("page of %d exceeds limit 3", len(page))
		}
		for _, st := range page {
			if after != "" && st.ID <= after {
				t.Fatalf("page entry %q not after cursor %q", st.ID, after)
			}
			seen = append(seen, st.ID)
		}
		if len(page) < 3 {
			break
		}
		after = page[len(page)-1].ID
	}
	if len(seen) != n {
		t.Fatalf("paging saw %d jobs %v, want %d", len(seen), seen, n)
	}
	for i, st := range all {
		if seen[i] != st.ID {
			t.Fatalf("paging order %v diverges from unpaged %v", seen, all)
		}
	}

	if code := do(t, ts, http.MethodGet, "/v1/jobs?limit=wat", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad limit should 400, got %d", code)
	}
	var empty []JobStatus
	if code := do(t, ts, http.MethodGet, "/v1/jobs?after=zzz", nil, &empty); code != http.StatusOK || len(empty) != 0 {
		t.Errorf("after past the end: status %d, %d jobs, want 200 with none", code, len(empty))
	}
}

// wireWalk decodes a JSON body with exact number literals and reports
// every number that does not parse as a finite float64.
func wireWalk(t *testing.T, what string, body []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: body does not decode: %v\n%s", what, err, body)
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case json.Number:
			f, err := strconv.ParseFloat(string(v), 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				t.Errorf("%s: %s = %s is not a finite number", what, path, v)
			}
		case map[string]any:
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range v {
				walk(path+"["+strconv.Itoa(i)+"]", e)
			}
		}
	}
	walk("$", v)
	m, _ := v.(map[string]any)
	return m
}

// TestWireNumbersFinite pins the wire contract that every number the
// broker sends is finite, on every route, for jobs whose library
// results are NOT all finite: without collect_data AggregationRMSE is
// NaN, DynamicRegret is NaN on every wire job (no drift), and with
// M == K the Theorem 19 bound is +Inf (Δ_min = 0). Those three read 0
// on the wire. Nothing scrubs the bodies, so a non-finite float
// anywhere would surface as a 500 from writeJSON or a dead stream.
func TestWireNumbersFinite(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Store = store
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name, req   string
		collect     bool // AggregationRMSE is measured
		finiteBound bool // RegretBound is finite
	}{
		{"faults", `{"random_sellers":12,"k":3,"rounds":200,"seed":3,"faults":{"channel":{"good_to_bad":0.1,"bad_to_good":0.3,"loss_bad":0.8},"churn":{"rate":0.01},"straggler":{"prob":0.2,"mean_delay":0.5}}}`, false, true},
		{"collect", `{"random_sellers":10,"k":3,"rounds":200,"seed":4,"collect_data":true}`, true, true},
		{"m-eq-k", `{"random_sellers":4,"k":4,"rounds":200,"seed":5}`, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st JobStatus
			if err := json.Unmarshal(get(http.MethodPost, "/v1/jobs", tc.req), &st); err != nil {
				t.Fatal(err)
			}
			base := "/v1/jobs/" + st.ID
			resp, sc := streamEvents(t, ts, st.ID, "?format=ndjson", nil)
			defer resp.Body.Close()

			wireWalk(t, "advance", get(http.MethodPost, base+"/advance", `{"rounds":40}`))
			if !sc.Scan() {
				t.Fatalf("no event frame: %v", sc.Err())
			}
			wireWalk(t, "event", sc.Bytes())
			status := wireWalk(t, "status", get(http.MethodGet, base, ""))
			res, _ := status["result"].(map[string]any)
			zero := func(field string, want bool) {
				t.Helper()
				if got := res[field].(json.Number).String() == "0"; got != want {
					t.Errorf("result.%s = %v, want zero=%v", field, res[field], want)
				}
			}
			zero("AggregationRMSE", !tc.collect)
			zero("DynamicRegret", true)
			zero("RegretBound", !tc.finiteBound)

			wireWalk(t, "list", get(http.MethodGet, "/v1/jobs", ""))
			wireWalk(t, "estimates", get(http.MethodGet, base+"/estimates", ""))
			for metric := range seriesMetrics {
				wireWalk(t, "series "+metric, get(http.MethodGet, base+"/series?metric="+metric, ""))
			}
			wireWalk(t, "stats", get(http.MethodGet, "/v1/stats", ""))
			wireWalk(t, "overview", get(http.MethodGet, "/v1/cluster/overview", ""))
			wireWalk(t, "snapshot", get(http.MethodPost, base+"/snapshot", ""))
		})
	}
	if err := s.SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
}

// TestOutOfRangeEconomicsRefused checks that economic inputs outside
// the envelope (economics.MinParam/MaxParam) are refused at entry with
// 400 invalid_request — on create, on resume from an edited snapshot,
// and on a stateless solve — and that no refused create leaves a job.
// A market past maxMarket sellers or PoIs, or a collect_data market
// past maxCollectData sellers × PoIs, is refused the same way, before
// anything is sized by it, while one exactly at the bound is accepted.
func TestOutOfRangeEconomicsRefused(t *testing.T) {
	ts := newTestServer(t)
	var donor JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs",
		JobRequest{RandomSellers: 20, K: 2, Rounds: 20, Seed: 1, CollectData: true}, &donor); code != http.StatusCreated {
		t.Fatalf("donor create: %d", code)
	}
	var snap SnapshotResponse
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+donor.ID+"/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("donor snapshot: %d", code)
	}
	if code := do(t, ts, http.MethodDelete, "/v1/jobs/"+donor.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("donor delete: %d", code)
	}
	omega := regexp.MustCompile(`"Omega":[^,}]*`)
	if !omega.Match(snap.Snapshot) {
		t.Fatalf("snapshot has no Omega field: %s", snap.Snapshot)
	}
	edited, err := json.Marshal(map[string]json.RawMessage{
		"snapshot": omega.ReplaceAll(snap.Snapshot, []byte(`"Omega":1e308`)),
	})
	if err != nil {
		t.Fatal(err)
	}

	poisRe := regexp.MustCompile(`"PoIs":[^,}]*`)
	if !poisRe.Match(snap.Snapshot) {
		t.Fatalf("snapshot has no PoIs field: %s", snap.Snapshot)
	}
	hugeL, err := json.Marshal(map[string]json.RawMessage{
		"snapshot": poisRe.ReplaceAll(snap.Snapshot, []byte(`"PoIs":2000000000`)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 sellers × 10 000 PoIs: each dimension within maxMarket, the
	// product past maxCollectData.
	dataOver, err := json.Marshal(map[string]json.RawMessage{
		"snapshot": poisRe.ReplaceAll(snap.Snapshot, []byte(`"PoIs":10000`)),
	})
	if err != nil {
		t.Fatal(err)
	}
	manySellers := `{"k":1,"rounds":1,"sellers":[` +
		strings.Repeat(`{"a":0.2,"b":0.1,"q":0.5},`, maxMarket) + `{"a":0.2,"b":0.1,"q":0.5}]}`

	job := `{"random_sellers":6,"k":2,"rounds":20,"seed":1,`
	solve := `{"sellers":[{"a":0.2,"b":0.1,"q":0.9},{"a":0.3,"b":0.2,"q":0.5}],`
	for _, tc := range []struct{ name, path, body string }{
		{"create omega", "/v1/jobs", job + `"omega":1e308}`},
		{"create lambda", "/v1/jobs", job + `"lambda":1e308}`},
		{"create theta", "/v1/jobs", job + `"theta":1e308}`},
		{"create p_max", "/v1/jobs", job + `"p_max":1e308}`},
		{"create pj_max", "/v1/jobs", job + `"pj_max":1e308}`},
		{"create tiny a", "/v1/jobs", `{"sellers":[{"a":1e-300,"b":0.1,"q":0.5},{"a":0.2,"b":0.1,"q":0.5}],"k":1,"rounds":20}`},
		{"resume omega", "/v1/jobs", string(edited)},
		{"create random_sellers huge", "/v1/jobs", `{"random_sellers":2000000000,"k":1,"rounds":1}`},
		{"create random_sellers over", "/v1/jobs", `{"random_sellers":10001,"k":1,"rounds":1}`},
		{"create sellers over", "/v1/jobs", manySellers},
		{"create pois huge", "/v1/jobs", job + `"pois":2000000000}`},
		{"resume pois huge", "/v1/jobs", string(hugeL)},
		{"create collect_data over", "/v1/jobs", `{"random_sellers":1000,"pois":101,"collect_data":true,"k":1,"rounds":1}`},
		{"resume collect_data over", "/v1/jobs", string(dataOver)},
		{"solve omega", "/v1/game/solve", solve + `"omega":1e308}`},
		{"solve lambda", "/v1/game/solve", solve + `"lambda":1e308}`},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || out.Error.Code != "invalid_request" {
			t.Errorf("%s: status %d, envelope %+v (%v), want 400 invalid_request",
				tc.name, resp.StatusCode, out.Error, derr)
		}
		tooLarge := strings.HasSuffix(tc.name, " over") || strings.HasSuffix(tc.name, " huge")
		if tooLarge && !strings.HasPrefix(out.Error.Message, "market too large") {
			t.Errorf("%s: refused as %q, want the market bound", tc.name, out.Error.Message)
		}
	}
	var list []JobStatus
	if code := do(t, ts, http.MethodGet, "/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("jobs after refused creates: status %d, %d jobs, want none", code, len(list))
	}
	// A market exactly at the bound is accepted.
	var edge JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs",
		JobRequest{RandomSellers: maxMarket, PoIs: maxMarket, K: 1, Rounds: 1}, &edge); code != http.StatusCreated || edge.Sellers != maxMarket {
		t.Fatalf("create at the bound: status %d, %d sellers", code, edge.Sellers)
	}
	if code := do(t, ts, http.MethodPost, "/v1/jobs",
		JobRequest{RandomSellers: 1000, PoIs: 100, CollectData: true, K: 1, Rounds: 1}, &edge); code != http.StatusCreated || edge.Sellers != 1000 {
		t.Fatalf("collect_data create at the bound: status %d, %d sellers", code, edge.Sellers)
	}
}
