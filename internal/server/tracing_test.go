package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cmabhs/internal/tracing"
)

// header issues a request straight at the handler and returns the
// recorder, for tests that inspect response headers.
func header(h http.Handler, method, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRequestIDEchoedOnEveryPath checks the X-Request-ID contract:
// a caller-supplied id comes back sanitized on success AND on every
// error-envelope path (404, 413, 429, 500), and a missing or junk id
// is replaced with a generated one.
func TestRequestIDEchoedOnEveryPath(t *testing.T) {
	s := New()
	s.MaxBodyBytes = 128
	s.MaxConcurrentAdvances = 1
	h := s.Handler()
	st := createJob(t, h)

	// Clean echo on a 200.
	rec := header(h, http.MethodGet, "/v1/healthz", map[string]string{"X-Request-ID": "client-req-1"})
	if got := rec.Header().Get("X-Request-ID"); got != "client-req-1" {
		t.Fatalf("200 echoed %q, want client-req-1", got)
	}

	// Missing id: a 16-hex-char one is generated.
	rec = header(h, http.MethodGet, "/v1/healthz", nil)
	if got := rec.Header().Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", got)
	}

	// Hostile bytes are stripped, length is capped.
	rec = header(h, http.MethodGet, "/v1/healthz", map[string]string{"X-Request-ID": "a<b>\"c\n;d"})
	if got := rec.Header().Get("X-Request-ID"); got != "abcd" {
		t.Fatalf("sanitized to %q, want abcd", got)
	}
	long := strings.Repeat("x", 200)
	rec = header(h, http.MethodGet, "/v1/healthz", map[string]string{"X-Request-ID": long})
	if got := rec.Header().Get("X-Request-ID"); len(got) != maxRequestIDLen {
		t.Fatalf("long id kept %d chars, want %d", len(got), maxRequestIDLen)
	}
	// An id that sanitizes to nothing is replaced, not echoed empty.
	rec = header(h, http.MethodGet, "/v1/healthz", map[string]string{"X-Request-ID": "<<<>>>"})
	if got := rec.Header().Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("all-junk id became %q, want a generated one", got)
	}

	// 404.
	rec = header(h, http.MethodGet, "/v1/jobs/nope", map[string]string{"X-Request-ID": "id-404"})
	if rec.Code != http.StatusNotFound || rec.Header().Get("X-Request-ID") != "id-404" {
		t.Fatalf("404 path: code %d, id %q", rec.Code, rec.Header().Get("X-Request-ID"))
	}

	// 413: declared-oversized body.
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(strings.Repeat("x", 512)))
	req.Header.Set("X-Request-ID", "id-413")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get("X-Request-ID") != "id-413" {
		t.Fatalf("413 path: code %d, id %q", rec.Code, rec.Header().Get("X-Request-ID"))
	}

	// 429: saturate the advance pool, then try to advance.
	if !s.pool().TryAcquire() {
		t.Fatal("could not saturate the pool")
	}
	rec = header(h, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", map[string]string{"X-Request-ID": "id-429"})
	s.pool().Release()
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("X-Request-ID") != "id-429" {
		t.Fatalf("429 path: code %d, id %q", rec.Code, rec.Header().Get("X-Request-ID"))
	}

	// 500: a recovered panic behind the same middleware chain.
	ph := s.frame(route{path: "other"}, http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }))
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/v1/poison", nil)
	req.Header.Set("X-Request-ID", "id-500")
	ph.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("X-Request-ID") != "id-500" {
		t.Fatalf("500 path: code %d, id %q", rec.Code, rec.Header().Get("X-Request-ID"))
	}
}

// TestTraceparentPropagation checks W3C trace-context handling at the
// broker edge: a valid inbound traceparent joins its trace (same
// trace id, new span id), a malformed one is ignored (fresh trace),
// and the access-log line carries the same trace id the response
// header does.
func TestTraceparentPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	s := New()
	lg, err := tracing.NewLogger(&logBuf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	s.Logger = lg
	s.Tracer = tracing.NewSeeded(1, 16)
	h := s.Handler()

	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	rec := header(h, http.MethodGet, "/v1/healthz", map[string]string{
		"traceparent": "00-" + inTrace + "-00f067aa0ba902b7-01",
	})
	out := rec.Header().Get("Traceparent")
	gotTrace, gotSpan, ok := tracing.ParseTraceparent(out)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", out)
	}
	if gotTrace.String() != inTrace {
		t.Fatalf("trace id not joined: got %s, want %s", gotTrace, inTrace)
	}
	if gotSpan.String() == "00f067aa0ba902b7" {
		t.Fatal("server reused the caller's span id instead of minting its own")
	}

	// The slog access line carries the same trace id plus the route,
	// code, and duration fields the log schema promises.
	line := logBuf.String()
	for _, want := range []string{
		`"trace_id":"` + inTrace + `"`,
		`"route":"/v1/healthz"`,
		`"code":200`,
		`"duration"`,
		`"request_id"`,
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log line missing %s: %s", want, line)
		}
	}

	// Malformed traceparent: ignored, a fresh trace is minted.
	rec = header(h, http.MethodGet, "/v1/healthz", map[string]string{
		"traceparent": "00-" + strings.ToUpper(inTrace) + "-00f067aa0ba902b7-01",
	})
	freshTrace, _, ok := tracing.ParseTraceparent(rec.Header().Get("Traceparent"))
	if !ok || freshTrace.String() == inTrace || strings.EqualFold(freshTrace.String(), inTrace) {
		t.Fatalf("malformed traceparent not replaced: %s", rec.Header().Get("Traceparent"))
	}

	// The trace store captured request spans under both trace ids.
	if _, ok := s.Tracing().Store().Trace(inTrace); !ok {
		t.Fatal("joined trace not recorded in the store")
	}
}

// TestAdvanceTraceAcceptance is the PR's acceptance path end to end:
// an advance and a snapshot sent under one traceparent produce a
// single trace — readable through the /debug/traces handler — holding
// the request spans, the pool-acquisition span, per-round child spans
// with job id and round attributes, and a store-write span whose
// events record each retry attempt.
func TestAdvanceTraceAcceptance(t *testing.T) {
	store := &flakyStore{failures: 1}
	s := New()
	s.Store = store
	s.StoreRetry = instantRetry(3)
	s.Tracer = tracing.NewSeeded(42, 64)
	h := s.Handler()
	st := createJob(t, h)

	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/advance",
		strings.NewReader(`{"rounds":3}`))
	req.Header.Set("traceparent", tp)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("advance status %d: %s", rec.Code, rec.Body)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil)
	req.Header.Set("traceparent", tp)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", rec.Code, rec.Body)
	}

	// Read the trace back the way an operator would: through the
	// debug handler.
	dbg := tracing.Handler(s.Tracing().Store())
	rec = httptest.NewRecorder()
	dbg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/debug/traces/0af7651916cd43dd8448eb211c80319c", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug trace status %d: %s", rec.Code, rec.Body)
	}
	var detail tracing.TraceDetail
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}

	byName := map[string][]tracing.SpanData{}
	for _, sp := range detail.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	advSpans := byName["http POST /v1/jobs/{id}/advance"]
	if len(advSpans) != 1 {
		t.Fatalf("advance request spans: %d, want 1 (all spans: %+v)", len(advSpans), detail.Spans)
	}
	if advSpans[0].Attrs["code"] != float64(http.StatusOK) {
		t.Fatalf("advance span attrs %v", advSpans[0].Attrs)
	}
	if len(byName["http POST /v1/jobs/{id}/snapshot"]) != 1 {
		t.Fatal("snapshot request span missing from the joined trace")
	}

	pool := byName["pool.acquire"]
	if len(pool) != 1 || pool[0].ParentID != advSpans[0].SpanID {
		t.Fatalf("pool.acquire span missing or mis-parented: %+v", pool)
	}
	if pool[0].Attrs["acquired"] != true {
		t.Fatalf("pool.acquire attrs %v", pool[0].Attrs)
	}

	rounds := byName["round"]
	if len(rounds) != 3 {
		t.Fatalf("%d round spans, want 3", len(rounds))
	}
	seen := map[float64]bool{}
	for _, sp := range rounds {
		if sp.ParentID != advSpans[0].SpanID {
			t.Fatalf("round span not parented under the advance request: %+v", sp)
		}
		if sp.Attrs["job_id"] != st.ID {
			t.Fatalf("round span job_id %v, want %s", sp.Attrs["job_id"], st.ID)
		}
		seen[sp.Attrs["round"].(float64)] = true
	}
	for r := 1; r <= 3; r++ {
		if !seen[float64(r)] {
			t.Fatalf("round %d has no span (saw %v)", r, seen)
		}
	}

	saves := byName["store.save"]
	if len(saves) != 1 {
		t.Fatalf("%d store.save spans, want 1", len(saves))
	}
	// One failed attempt plus the success: two attempt events, the
	// first carrying the error text.
	if len(saves[0].Events) != 2 {
		t.Fatalf("store.save events %+v, want 2 attempts", saves[0].Events)
	}
	if saves[0].Events[0].Attrs["error"] == nil {
		t.Fatalf("first attempt event lost its error: %+v", saves[0].Events[0])
	}
	if saves[0].Events[1].Attrs["error"] != nil {
		t.Fatalf("successful attempt carries an error: %+v", saves[0].Events[1])
	}
}

// TestHealthzJobsAndDebugAddr checks the new healthz fields: the live
// job count and the advertised debug address, alongside the original
// fields.
func TestHealthzJobsAndDebugAddr(t *testing.T) {
	s := New()
	s.DebugAddr = "127.0.0.1:9999"
	h := s.Handler()

	var out Healthz
	rec := header(h, http.MethodGet, "/v1/healthz", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Jobs != 0 || out.DebugAddr != "127.0.0.1:9999" || out.Status != "ok" {
		t.Fatalf("healthz %+v", out)
	}

	createJob(t, h)
	rec = header(h, http.MethodGet, "/v1/healthz", nil)
	out = Healthz{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Jobs != 1 {
		t.Fatalf("jobs = %d after one create, want 1", out.Jobs)
	}
}
