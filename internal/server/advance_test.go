package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cmabhs"
	"cmabhs/internal/tracing"
)

// cancelAfter is a request context that reports itself cancelled once
// Err has been asked n times — the advance loop asks once per round,
// so it cancels an advance mid-way at a round boundary, without a
// timing race.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// postAdvance sends one advance straight at the handler and returns
// the raw body.
func postAdvance(t *testing.T, h http.Handler, ctx context.Context, id string, rounds int) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+id+"/advance",
		strings.NewReader(`{"rounds":`+jsonInt(rounds)+`}`))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("advance status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestAdvanceBodyByteIdentity proves the advance body, built round by
// round from borrowed records, is byte for byte the canonical
// encoding: json.Marshal of the AdvanceResponse plus a newline, whose
// played rounds are the ones a twin Session's AdvanceContext returns
// for the same job. It covers a full advance, one cancelled mid-way,
// one cut short at the horizon, and one on a finished job.
func TestAdvanceBodyByteIdentity(t *testing.T) {
	s := New()
	s.Tracer = tracing.NewSeeded(1, 64)
	h := s.Handler()
	jr := JobRequest{RandomSellers: 30, K: 5, Rounds: 60, Seed: 7}
	body, _ := json.Marshal(jr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	cfg, err := jr.config()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := cmabhs.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []byte, twinAdv cmabhs.Advance) AdvanceResponse {
		t.Helper()
		var resp AdvanceResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(canon, '\n')) {
			t.Fatalf("%s: body is not canonical encoding/json\n got: %s\nwant: %s\n", name, got, canon)
		}
		// The rounds are the twin's, and the whole body is what
		// encoding the twin's owned rounds would write.
		want, err := json.Marshal(AdvanceResponse{Played: twinAdv.Played, Stopped: twinAdv.Stopped, Status: resp.Status})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s: body differs from the twin session's rounds\n got: %s\nwant: %s\n", name, got, want)
		}
		return resp
	}

	full := postAdvance(t, h, nil, st.ID, 25)
	twinAdv, err := twin.AdvanceContext(context.Background(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if resp := check("full", full, twinAdv); len(resp.Played) != 25 || resp.Stopped != "" {
		t.Fatalf("full advance played %d, stopped %q", len(resp.Played), resp.Stopped)
	}

	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(10)
	cut := postAdvance(t, h, ctx, st.ID, 25)
	var probe AdvanceResponse
	if err := json.Unmarshal(cut, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Stopped != "canceled" || len(probe.Played) == 0 || len(probe.Played) >= 25 {
		t.Fatalf("cancelled advance played %d, stopped %q", len(probe.Played), probe.Stopped)
	}
	twinAdv, err = twin.AdvanceContext(context.Background(), len(probe.Played))
	if err != nil {
		t.Fatal(err)
	}
	twinAdv.Stopped = "canceled"
	check("cancelled", cut, twinAdv)

	horizon := postAdvance(t, h, nil, st.ID, 100)
	twinAdv, err = twin.AdvanceContext(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if resp := check("horizon", horizon, twinAdv); len(resp.Played) != 60-25-len(probe.Played) || !resp.Status.Done {
		t.Fatalf("horizon advance played %d, done %v", len(resp.Played), resp.Status.Done)
	}

	done := postAdvance(t, h, nil, st.ID, 5)
	if !bytes.HasPrefix(done, []byte(`{"played":null,"status":{`)) {
		t.Fatalf("advance on a done job: %s", done)
	}
	check("done", done, cmabhs.Advance{})
}

// TestAdvanceAllocsPerRound pins the broker's per-round allocation
// cost: a traced m300/k10 advance through the real handler allocates
// at most 5 times per round beyond its fixed per-request cost. The
// fixed cost cancels in the difference between a 50-round and a
// 25-round advance.
func TestAdvanceAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops distort allocation counts")
	}
	lg, err := tracing.NewLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Logger = lg
	s.Tracer = tracing.NewSeeded(1, 0)
	h := s.Handler()
	body, _ := json.Marshal(JobRequest{RandomSellers: 300, K: 10, Rounds: 1 << 30, Seed: 1})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	perAdvance := func(rounds int) float64 {
		payload := []byte(`{"rounds":` + jsonInt(rounds) + `}`)
		return testing.AllocsPerRun(20, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+st.ID+"/advance", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("advance status %d: %s", rec.Code, rec.Body)
			}
		})
	}
	perAdvance(50) // warm the pools and the trace ring
	a25, a50 := perAdvance(25), perAdvance(50)
	perRound := (a50 - a25) / 25
	t.Logf("allocs: %.0f per 25-round advance, %.0f per 50-round advance, %.2f per round", a25, a50, perRound)
	if perRound > 5 {
		t.Fatalf("a broker advance allocates %.2f times per round, want <= 5", perRound)
	}
}

// TestWideJobHeapBounded pins a job's working set at O(M + L): a job
// with K = M = 500 sellers and L = 10 000 PoIs, created and advanced two
// rounds through the real handler, keeps and allocates only what its
// sellers and one L-row of observations need, never a K×L (or, in the
// exploration round, M×L) block of them. The live heap is read after a
// full GC with the server and its job still reachable. The test does
// not run in parallel: another test's allocations would count.
func TestWideJobHeapBounded(t *testing.T) {
	const maxLive, maxAlloc = 4 << 20, 16 << 20
	lg, err := tracing.NewLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Logger = lg
	h := s.Handler()
	serve := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var st JobStatus
	if err := json.Unmarshal(serve("/v1/jobs", []byte(`{"random_sellers":500,"k":500,"pois":10000,"rounds":10}`)), &st); err != nil {
		t.Fatal(err)
	}
	serve("/v1/jobs/"+st.ID+"/advance", []byte(`{"rounds":2}`))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("job of 500 sellers × 10000 pois after 2 rounds: %+.1f MB live, %.1f MB allocated",
		float64(live)/(1<<20), float64(alloc)/(1<<20))
	if live > maxLive || alloc > maxAlloc {
		t.Fatalf("live heap grew %d bytes (limit %d) and %d bytes were allocated (limit %d)",
			live, maxLive, alloc, maxAlloc)
	}
}
