package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cmabhs/internal/engine"
)

// chunked hides a body's length so it reaches the handler through
// http.MaxBytesReader instead of the declared-length check.
type chunked struct{ io.Reader }

// TestBodyLimits is the table-driven 413 surface: every JSON endpoint
// must reject oversized bodies — declared lengths before reading a
// byte, undeclared ones through the capped reader — with a clear 413,
// and leave the server serving.
func TestBodyLimits(t *testing.T) {
	s := New()
	s.MaxBodyBytes = 256
	h := s.Handler()
	st := createJob(t, h)

	big := `{"pad":"` + strings.Repeat("x", 512) + `"}`
	tests := []struct {
		name, method, path string
		// declaredOnly: the handler never reads its body, so only the
		// declared-length check (not the capped reader) can trip.
		declaredOnly bool
	}{
		{"job create", http.MethodPost, "/v1/jobs", false},
		{"advance", http.MethodPost, "/v1/jobs/" + st.ID + "/advance", false},
		{"snapshot", http.MethodPost, "/v1/jobs/" + st.ID + "/snapshot", true},
		{"solve game", http.MethodPost, "/v1/game/solve", false},
	}
	for _, tc := range tests {
		for _, declared := range []bool{true, false} {
			if !declared && tc.declaredOnly {
				continue
			}
			name := tc.name + "/declared"
			var body io.Reader = strings.NewReader(big)
			if !declared {
				name = tc.name + "/chunked"
				body = chunked{strings.NewReader(big)}
			}
			t.Run(name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
				}
			})
		}
	}

	// Within the limit everything still works.
	code, adv := advance(t, h, nil, st.ID, 3)
	if code != http.StatusOK || len(adv.Played) != 3 {
		t.Fatalf("normal advance after 413s: status %d, played %d", code, len(adv.Played))
	}
}

// TestPanicRecovery checks panic isolation: a panicking handler turns
// into a 500 without killing the process, later requests keep being
// served, and the stdlib's own abort sentinel still passes through.
func TestPanicRecovery(t *testing.T) {
	s := New()
	calls := 0
	h := s.frame(route{path: "other"}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch r.URL.Path {
		case "/boom":
			panic(fmt.Sprintf("injected panic %d", calls))
		case "/abort":
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status %d, want 500", rec.Code)
	}

	// The server survived: the next request is served normally.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fine", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panic: status %d", rec.Code)
	}

	// http.ErrAbortHandler is the stdlib's own control flow — it must
	// re-panic, not become a 500.
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler swallowed by the recovery middleware")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
}

// TestPanicInAdvanceKeepsOtherJobsAlive injects a panic through the
// real mux (a poisoned handler registered alongside it) and checks an
// unrelated job keeps trading afterwards — one bad request must not
// take down live jobs.
func TestPanicInAdvanceKeepsOtherJobsAlive(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)

	// Panic mid-flight on a hardened handler sharing the server.
	ph := s.frame(route{path: "other"}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("poisoned request")
	}))
	rec := httptest.NewRecorder()
	ph.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/poison", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("poisoned request status %d", rec.Code)
	}

	code, adv := advance(t, h, nil, st.ID, 7)
	if code != http.StatusOK || len(adv.Played) != 7 {
		t.Fatalf("job after panic: status %d, played %d", code, len(adv.Played))
	}
}

// TestRequestDeadline checks the per-request deadline degrades an
// advance gracefully: the context expires at a round boundary and the
// response reports the partial progress with a "canceled" stop.
func TestRequestDeadline(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)

	s.RequestTimeout = time.Nanosecond // expires before the first round
	code, adv := advance(t, h, nil, st.ID, 10)
	if code != http.StatusOK {
		t.Fatalf("deadlined advance status %d", code)
	}
	if adv.Stopped != "canceled" {
		t.Fatalf("stopped = %q, want canceled", adv.Stopped)
	}

	// With a sane deadline the job resumes where it stopped.
	s.RequestTimeout = time.Minute
	code, adv = advance(t, h, nil, st.ID, 10)
	if code != http.StatusOK || len(adv.Played) == 0 {
		t.Fatalf("recovered advance: status %d, played %d", code, len(adv.Played))
	}
}

// flakyStore is an in-memory Store whose first n Save calls fail.
type flakyStore struct {
	failures int
	calls    int
	saved    map[string][]byte
}

func (f *flakyStore) Save(id string, data []byte) error {
	f.calls++
	if f.calls <= f.failures {
		return errors.New("transient store outage")
	}
	if f.saved == nil {
		f.saved = make(map[string][]byte)
	}
	f.saved[id] = append([]byte(nil), data...)
	return nil
}

func (f *flakyStore) Load(id string) ([]byte, error) {
	data, ok := f.saved[id]
	if !ok {
		return nil, errors.New("no snapshot")
	}
	return data, nil
}

func (f *flakyStore) Delete(id string) error { delete(f.saved, id); return nil }

func (f *flakyStore) List() ([]string, error) {
	var ids []string
	for id := range f.saved {
		ids = append(ids, id)
	}
	return ids, nil
}

// instantRetry is a no-wait retry policy for tests.
func instantRetry(attempts int) engine.RetryPolicy {
	return engine.RetryPolicy{
		MaxAttempts: attempts,
		Jitter:      -1,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

// TestSnapshotRetriesTransientStoreFailure checks the broker rides
// out transient store outages: Save fails twice, the retry loop keeps
// going, and the snapshot lands.
func TestSnapshotRetriesTransientStoreFailure(t *testing.T) {
	store := &flakyStore{failures: 2}
	s := New()
	s.Store = store
	s.StoreRetry = instantRetry(3)
	h := s.Handler()
	st := createJob(t, h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", rec.Code, rec.Body)
	}
	if store.calls != 3 {
		t.Fatalf("store saw %d Save calls, want 3 (2 failures + 1 success)", store.calls)
	}
	if _, err := store.Load(st.ID); err != nil {
		t.Fatalf("snapshot not persisted after retries: %v", err)
	}

	// A store that never recovers surfaces as a 500 once attempts run
	// out — bounded, not infinite, retrying.
	dead := &flakyStore{failures: 1 << 30}
	s.Store = dead
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("dead store snapshot status %d, want 500", rec.Code)
	}
	if dead.calls != 3 {
		t.Fatalf("dead store saw %d attempts, want exactly 3", dead.calls)
	}
}
