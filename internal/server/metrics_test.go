package server

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmabhs/internal/metrics"
)

// scrape fetches GET /metrics through the full middleware chain and
// returns the exposition body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("scrape content type %q, want %q", ct, metrics.ContentType)
	}
	return rec.Body.String()
}

// TestMetricsEndpoint drives real traffic through the broker and
// checks the scrape reflects it: request counters by route and code,
// monotone cumulative latency buckets, and the service-level counters.
func TestMetricsEndpoint(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)
	if code, adv := advance(t, h, nil, st.ID, 5); code != http.StatusOK || len(adv.Played) != 5 {
		t.Fatalf("advance: %d", code)
	}
	body := scrape(t, h)

	for _, want := range []string{
		`cdt_http_requests_total{code="201",method="POST",route="/v1/jobs"} 1`,
		`cdt_http_requests_total{code="200",method="POST",route="/v1/jobs/{id}/advance"} 1`,
		`cdt_jobs_created_total 1`,
		`cdt_rounds_advanced_total 5`,
		`cdt_jobs_live 1`,
		`cdt_advance_pool_active 0`,
		`cdt_http_in_flight 1`, // the scrape request itself
		"# TYPE cdt_http_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Job ids never reach labels: they are monotonic and unbounded
	// under create/delete churn, so an id-labeled series would grow the
	// registry without bound on a long-lived broker.
	if strings.Contains(body, st.ID) {
		t.Errorf("exposition leaks job id %q into a label", st.ID)
	}

	// The advance route's latency histogram saw exactly one observation
	// and its cumulative buckets are monotone.
	snap := s.Metrics().Snapshot()
	if n := snap[`cdt_http_request_seconds_count{route="/v1/jobs/{id}/advance"}`]; n != 1 {
		t.Fatalf("advance latency count %v, want 1", n)
	}
	prev := 0.0
	for _, b := range metrics.DefLatencyBuckets {
		key := `cdt_http_request_seconds_bucket{le="` + trimFloat(b) + `",route="/v1/jobs/{id}/advance"}`
		v, ok := snap[key]
		if !ok {
			t.Fatalf("missing bucket series %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %v below previous %v: not cumulative", key, v, prev)
		}
		prev = v
	}
	if inf := snap[`cdt_http_request_seconds_bucket{le="+Inf",route="/v1/jobs/{id}/advance"}`]; inf != 1 {
		t.Fatalf("+Inf bucket %v, want 1", inf)
	}
}

// trimFloat renders a bucket bound the way the snapshot keys do.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TestShedCounterAndEnvelope saturates the advance pool and checks the
// shed path end to end: 429 with the structured "saturated" envelope
// (retry hint mirrored into the body) and the shed counter advancing.
func TestShedCounterAndEnvelope(t *testing.T) {
	s := New()
	s.MaxConcurrentAdvances = 1
	h := s.Handler()
	st := createJob(t, h)

	if err := s.pool().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool().Release()

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/advance", strings.NewReader(`{"rounds":5}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated advance status %d, want 429", rec.Code)
	}
	var out ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != "saturated" || out.Error.Message == "" {
		t.Fatalf("shed envelope %+v, want code saturated", out)
	}
	if out.Error.RetryAfterS <= 0 {
		t.Fatalf("shed envelope retry_after_s %v, want > 0", out.Error.RetryAfterS)
	}

	snap := s.Metrics().Snapshot()
	if v := snap["cdt_http_shed_total"]; v != 1 {
		t.Fatalf("cdt_http_shed_total %v, want 1", v)
	}
	if v := snap[`cdt_http_requests_total{code="429",method="POST",route="/v1/jobs/{id}/advance"}`]; v != 1 {
		t.Fatalf("429 request counter %v, want 1", v)
	}
}

// TestShedRateCountsEachShedOnce pins the shed rate as sheds ÷ advance
// requests: with every advance shed it reads exactly 1 on both the
// scrape and the overview, however much other traffic (the create,
// the status reads) shares the window, and one served advance in five
// makes it 0.8.
func TestShedRateCountsEachShedOnce(t *testing.T) {
	s := New()
	s.MaxConcurrentAdvances = 1
	h := s.Handler()
	st := createJob(t, h)
	if err := s.pool().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if code, _ := advance(t, h, nil, st.ID, 1); code != http.StatusTooManyRequests {
			t.Fatalf("saturated advance %d: status %d, want 429", i, code)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
	}
	check := func(want float64) {
		t.Helper()
		snap := s.Metrics().Snapshot()
		for _, name := range []string{"cdt_http_shed_rate_1m", "cdt_http_shed_rate_5m"} {
			if got := snap[name]; got != want {
				t.Errorf("%s = %v, want %v", name, got, want)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/overview", nil))
		var ov ClusterOverview
		if err := json.Unmarshal(rec.Body.Bytes(), &ov); err != nil {
			t.Fatalf("overview: %v\n%s", err, rec.Body)
		}
		if w := ov.Nodes[0].Window; w.Win1m.ShedRate != want || w.Win5m.ShedRate != want {
			t.Errorf("overview shed_rate 1m=%v 5m=%v, want %v", w.Win1m.ShedRate, w.Win5m.ShedRate, want)
		}
	}
	check(1)

	s.pool().Release()
	if code, _ := advance(t, h, nil, st.ID, 1); code != http.StatusOK {
		t.Fatalf("advance after release: %d", code)
	}
	check(0.8)
}

// TestRejectionCounters checks the middleware failure counters: 413s
// increment the body-reject counter, recovered panics increment the
// panic counter, and both land in the request counter with their
// status codes.
func TestRejectionCounters(t *testing.T) {
	s := New()
	s.MaxBodyBytes = 64
	h := s.Handler()

	big := `{"pad":"` + strings.Repeat("x", 256) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", rec.Code)
	}

	ph := s.frame(route{path: "other"}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("injected")
	}))
	rec = httptest.NewRecorder()
	ph.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/poison", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status %d, want 500", rec.Code)
	}

	snap := s.Metrics().Snapshot()
	if v := snap["cdt_http_body_reject_total"]; v != 1 {
		t.Fatalf("cdt_http_body_reject_total %v, want 1", v)
	}
	if v := snap["cdt_http_panics_total"]; v != 1 {
		t.Fatalf("cdt_http_panics_total %v, want 1", v)
	}
	if v := snap[`cdt_http_requests_total{code="500",method="GET",route="other"}`]; v != 1 {
		t.Fatalf("500 request counter %v, want 1", v)
	}
}

// TestMetricsRouteLabels drives one request per row through Handler
// and checks its status and the route label it is counted under. Every
// route's normal request lands on its own label; a request no route
// matches (an extra segment, a trailing slash, a stray path) is a 404
// under "other" and is not served; a wrong method is the JSON 405
// under the path's own label.
func TestMetricsRouteLabels(t *testing.T) {
	s := New()
	h := s.Handler()
	a := "/v1/jobs/" + createJob(t, h).ID
	b := "/v1/jobs/" + createJob(t, h).ID
	const (
		get, post, put, del = http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete
	)
	cases := []struct {
		method, path, body string
		code               int
		route              string
	}{
		{get, "/v1/healthz", "", 200, "/v1/healthz"},
		{get, "/v1/jobs", "", 200, "/v1/jobs"},
		{post, "/v1/jobs", `{"random_sellers":6,"k":2,"rounds":10}`, 201, "/v1/jobs"},
		{get, a, "", 200, "/v1/jobs/{id}"},
		{post, a + "/advance", `{"rounds":2}`, 200, "/v1/jobs/{id}/advance"},
		{post, a + "/snapshot", "", 200, "/v1/jobs/{id}/snapshot"},
		{get, a + "/estimates", "", 200, "/v1/jobs/{id}/estimates"},
		{get, a + "/events", "", 200, "/v1/jobs/{id}/events"},
		{get, a + "/series?metric=revenue", "", 200, "/v1/jobs/{id}/series"},
		{post, "/v1/game/solve", `{"sellers":[{"a":0.2,"b":0.1,"q":0.9}]}`, 200, "/v1/game/solve"},
		{get, "/v1/stats", "", 200, "/v1/stats"},
		{get, "/v1/cluster/overview", "", 200, "/v1/cluster/overview"},
		{get, "/metrics", "", 200, "/metrics"},
		{del, b, "", 200, "/v1/jobs/{id}"},

		{post, a + "/advance/extra", `{"rounds":5}`, 404, "other"},
		{get, a + "/", "", 404, "other"},
		{get, "/favicon.ico", "", 404, "other"},

		{get, "/v1/game/solve", "", 405, "/v1/game/solve"},
		{put, a, "", 405, "/v1/jobs/{id}"},
	}
	for _, tc := range cases {
		key := `cdt_http_requests_total{code="` + strconv.Itoa(tc.code) + `",method="` + tc.method + `",route="` + tc.route + `"}`
		before := s.Metrics().Snapshot()[key]
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		if tc.route == "/v1/jobs/{id}/events" {
			// A stream ends when its client goes away: a cancelled
			// request gets the 200 header and returns.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.code, rec.Body)
		}
		if tc.code >= 400 {
			var out ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error.Code != errorCode(tc.code) {
				t.Errorf("%s %s: envelope %q (err %v), want code %s", tc.method, tc.path, rec.Body, err, errorCode(tc.code))
			}
		}
		if got := s.Metrics().Snapshot()[key] - before; got != 1 {
			t.Errorf("%s %s: %s moved by %v, want 1", tc.method, tc.path, key, got)
		}
	}

	// The extra-segment advance played nothing: only the 2 rounds of
	// the real advance were played.
	var st JobStatus
	if err := json.Unmarshal(header(h, get, a, nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.NextRound != 3 || s.met().roundsAdvanced.Value() != 2 {
		t.Fatalf("next_round %d, rounds advanced %d; want 3 and 2", st.NextRound, s.met().roundsAdvanced.Value())
	}
}

// TestJobStatusMetricsAndLinks checks the per-job wire surface: the
// status envelope carries advance throughput and navigable links.
func TestJobStatusMetricsAndLinks(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)
	if st.Links.Self != "/v1/jobs/"+st.ID || st.Links.Snapshot != "/v1/jobs/"+st.ID+"/snapshot" || st.Links.Metrics != "/metrics" {
		t.Fatalf("links %+v", st.Links)
	}
	if st.Metrics.RoundsAdvanced != 0 || st.Metrics.RoundsPerSec != 0 {
		t.Fatalf("fresh job metrics %+v, want zeros", st.Metrics)
	}

	code, adv := advance(t, h, nil, st.ID, 20)
	if code != http.StatusOK || len(adv.Played) != 20 {
		t.Fatalf("advance: %d", code)
	}
	m := adv.Status.Metrics
	if m.RoundsAdvanced != 20 {
		t.Fatalf("rounds_advanced %d, want 20", m.RoundsAdvanced)
	}
	if m.RoundsPerSec <= 0 {
		t.Fatalf("rounds_per_sec %v, want > 0", m.RoundsPerSec)
	}
	if m.LastAdvanceSeconds <= 0 {
		t.Fatalf("last_advance_seconds %v, want > 0", m.LastAdvanceSeconds)
	}
}

// TestSharedRegistry checks the broker instruments itself into a
// caller-provided registry instead of a private one.
func TestSharedRegistry(t *testing.T) {
	reg := metrics.New()
	reg.Counter("app_custom_total", "App-level counter.").Add(7)
	s := New()
	s.Registry = reg
	h := s.Handler()
	createJob(t, h)

	body := scrape(t, h)
	for _, want := range []string{"app_custom_total 7", "cdt_jobs_created_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("shared-registry exposition missing %q", want)
		}
	}
}

// TestMetricsExpositionGolden pins the broker's whole /metrics body
// byte for byte for one fixed observation sequence: every route's
// latency histogram and rolling windows, and the shed windows, all on
// an injected clock that crosses slot boundaries so some samples age
// out of the 1m windows but not the 5m ones. The build_info labels
// that name the toolchain are normalised. Regenerate with
// `go test ./internal/server -run TestMetricsExpositionGolden -update-golden`.
func TestMetricsExpositionGolden(t *testing.T) {
	s := New()
	m := s.met()
	clk := newFakeClock()
	labels := make([]string, 0, len(m.routes))
	for label, rm := range m.routes {
		labels = append(labels, label)
		rm.win[0].SetNow(clk.Now)
		rm.win[1].SetNow(clk.Now)
	}
	sort.Strings(labels)
	m.winShed[0].SetNow(clk.Now)
	m.winShed[1].SetNow(clk.Now)

	values := []float64{0, 0.0003, 0.0005, 0.004, 0.01, 0.07, 0.3, 2.5, 3, 12}
	for step := 0; step < 6; step++ {
		for i, label := range labels {
			rm := m.routes[label]
			for j := 0; j < (i+step)%4+1; j++ {
				v := values[(i*3+step*7+j)%len(values)] * (1 + float64(step)/8)
				rm.latency.Observe(v)
				rm.win[0].Observe(v)
				rm.win[1].Observe(v)
			}
		}
		if step%2 == 0 {
			m.recordShed()
		}
		clk.Advance(17 * time.Second)
	}

	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`(go_version|version)="[^"]*"`).ReplaceAllString(b.String(), `$1="X"`)
	path := filepath.Join("testdata", "metrics_exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_exposition.golden")
