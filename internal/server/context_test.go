package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// createJob posts a small random-market job straight at the handler
// and returns its status.
func createJob(t *testing.T, h http.Handler) JobStatus {
	t.Helper()
	body, err := json.Marshal(JobRequest{RandomSellers: 10, K: 3, Rounds: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func advance(t *testing.T, h http.Handler, ctx context.Context, id string, rounds int) (int, AdvanceResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+id+"/advance",
		strings.NewReader(`{"rounds":`+jsonInt(rounds)+`}`))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var adv AdvanceResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &adv); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, adv
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestAdvanceCancelledContext checks the disconnect semantics: an
// advance whose request context is already cancelled reports zero
// rounds played and a "canceled" stop reason, and the job remains
// resumable by a later advance with a live context.
func TestAdvanceCancelledContext(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, adv := advance(t, h, ctx, st.ID, 10)
	if code != http.StatusOK {
		t.Fatalf("cancelled advance status %d", code)
	}
	if len(adv.Played) != 0 {
		t.Fatalf("cancelled advance played %d rounds", len(adv.Played))
	}
	if adv.Stopped != "canceled" {
		t.Fatalf("stopped = %q, want canceled", adv.Stopped)
	}
	if adv.Status.Done {
		t.Fatal("cancelled advance marked the job done")
	}
	if adv.Status.NextRound != 1 {
		t.Fatalf("next round %d after cancelled advance", adv.Status.NextRound)
	}

	// The cancellation left no mark: a live advance resumes normally.
	code, adv = advance(t, h, nil, st.ID, 10)
	if code != http.StatusOK {
		t.Fatalf("resumed advance status %d", code)
	}
	if len(adv.Played) != 10 || adv.Status.NextRound != 11 {
		t.Fatalf("resumed advance played %d, next %d", len(adv.Played), adv.Status.NextRound)
	}
	if adv.Stopped != "" {
		t.Fatalf("resumed advance stopped = %q", adv.Stopped)
	}
}

// TestAdvancePoolSaturated checks the load-shedding path: a full
// advance pool yields an immediate 429 with a Retry-After hint
// rather than queueing the request, and a freed slot admits the
// retry.
func TestAdvancePoolSaturated(t *testing.T) {
	s := New()
	s.MaxConcurrentAdvances = 1
	h := s.Handler()
	st := createJob(t, h)

	if err := s.pool().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/advance", strings.NewReader(`{"rounds":5}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated advance status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// A freed slot admits the retried request.
	s.pool().Release()
	code, adv := advance(t, h, nil, st.ID, 5)
	if code != http.StatusOK || len(adv.Played) != 5 {
		t.Fatalf("retry after shed: status %d, played %d", code, len(adv.Played))
	}
}

// TestWriteJSONEncodeFirst pins writeJSON's contract: a finite value is
// the json.Encoder bytes under the given status, and a value that cannot
// encode (a non-finite float) becomes a 500 error envelope — never a
// truncated body under the success status.
func TestWriteJSONEncodeFirst(t *testing.T) {
	v := map[string]any{"a": 1.5, "b": []float64{0, 2}, "s": "<x>"}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, v)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusCreated || rec.Body.String() != want.String() {
		t.Fatalf("finite value: status %d body %q, want 201 %q", rec.Code, rec.Body, want.String())
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct{ X float64 }{math.NaN()})
	var out ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body does not decode: %v (%q)", err, rec.Body)
	}
	if rec.Code != http.StatusInternalServerError || out.Error.Code != "internal" ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("NaN value: status %d, envelope %+v, content type %q",
			rec.Code, out, rec.Header().Get("Content-Type"))
	}
}
