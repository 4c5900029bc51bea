package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cmabhs"
	"cmabhs/internal/server"
	"cmabhs/internal/tracing"
)

// The -bench mode: instead of reproducing the paper's figures, run a
// fixed set of micro-benchmarks over the hot paths (round advance,
// game solve, snapshot encode and resume, tracing overhead) and emit
// one record per case — the performance trajectory CI archives per
// PR, so a regression shows up as a diff between artifacts rather
// than an anecdote.

// BenchResult is one benchmark case on the wire. MinNsPerOp is the
// fastest of the -reps runs: a case bound by the disk (an fsync) is
// slowed by the device's jitter, never sped up, so its minimum moves
// with the code far more than its median does. Trajectories archived
// before it was recorded lack it.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchCase is one entry in the micro-benchmark registry.
type benchCase struct {
	name string
	fn   func(b *testing.B)
}

// benchSession builds a mid-size session or aborts the run — bench
// setup failures are programming errors, not conditions to ride out.
func benchSession(m, k, rounds int) *cmabhs.Session {
	cfg := cmabhs.RandomConfig(m, k, rounds, 1)
	sess, err := cmabhs.NewSession(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdt-bench:", err)
		os.Exit(1)
	}
	return sess
}

// benchBroker builds a broker the way cdt-server does — a tracer on,
// access log discarded — with one m-seller job, and returns its
// handler and the job's id, or aborts the run.
func benchBroker(m, k int) (http.Handler, string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cdt-bench:", err)
		os.Exit(1)
	}
	lg, err := tracing.NewLogger(io.Discard, "text", "info")
	if err != nil {
		fail(err)
	}
	srv := server.New()
	srv.Logger = lg
	srv.Tracer = tracing.New(tracing.DefaultCapacity)
	h := srv.Handler()
	body, err := json.Marshal(server.JobRequest{RandomSellers: m, K: k, Rounds: 1_000_000_000, Seed: 1})
	if err != nil {
		fail(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var st server.JobStatus
	if rec.Code != http.StatusCreated {
		fail(fmt.Errorf("create job: status %d: %s", rec.Code, rec.Body))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		fail(err)
	}
	return h, st.ID
}

// microBenches is the short benchmark set CI runs on every PR.
var microBenches = []benchCase{
	{"advance_round_m50_k5", func(b *testing.B) {
		// A horizon far beyond b.N so one session serves every iteration.
		sess := benchSession(50, 5, 1_000_000_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.AdvanceContext(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"advance_round_m300_k10", func(b *testing.B) {
		sess := benchSession(300, 10, 1_000_000_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.AdvanceContext(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"advance_round_m300_k10_young", func(b *testing.B) {
		// Rounds 250–5000 of an observed m300/k10 job, the age band
		// the broker's advance workload plays in, where UCB is still
		// exploring. Each band gets a fresh session whose first 249
		// rounds are played off the clock.
		const first, last = 250, 5000
		var sess *cmabhs.Session
		fresh := func() {
			sess = benchSession(300, 10, last)
			sess.Observe(func(*cmabhs.RoundEvent) {})
			if _, err := sess.AdvanceContext(context.Background(), first-1); err != nil {
				b.Fatal(err)
			}
		}
		fresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sess.NextRound() > last {
				b.StopTimer()
				fresh()
				b.StartTimer()
			}
			if _, err := sess.AdvanceContext(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"broker_advance_m300_k10_r25", func(b *testing.B) {
		// One traced 25-round advance through the real handler: the
		// request frame, round spans, observer fan-out and the
		// response body, on top of the rounds themselves.
		h, id := benchBroker(300, 10)
		payload := []byte(`{"rounds":25}`)
		path := "/v1/jobs/" + id + "/advance"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)))
			if rec.Code != http.StatusOK {
				b.Fatalf("advance status %d: %s", rec.Code, rec.Body)
			}
		}
	}},
	{"encode_advance_body_m300_k10_r25", func(b *testing.B) {
		// The advance body build alone: 25 played rounds and the job
		// status, appended the way the advance handler appends them,
		// with the status's per-seller text cache carried from one
		// advance to the next. The inputs are 64 successive 25-round
		// advances of one m300/k10 job from round 250 (the broker's
		// advance workload age band), played and decoded off the clock
		// and then cycled.
		const first, rounds, bodies = 250, 25, 64
		h, id := benchBroker(300, 10)
		path := "/v1/jobs/" + id + "/advance"
		advance := func(n int) server.AdvanceResponse {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"rounds":`+strconv.Itoa(n)+`}`)))
			var resp server.AdvanceResponse
			if rec.Code != http.StatusOK {
				b.Fatalf("advance status %d: %s", rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
			return resp
		}
		advance(first - 1)
		inputs := make([]server.AdvanceResponse, bodies)
		for i := range inputs {
			inputs[i] = advance(rounds)
		}
		encode := server.AdvanceBodyEncoder()
		var body []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := &inputs[i%bodies]
			var err error
			if body, err = encode(body[:0], in.Played, in.Stopped, &in.Status); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"solve_game_closed_form_k10", func(b *testing.B) {
		cfg := cmabhs.RandomConfig(10, 10, 1, 3)
		gc := cmabhs.GameConfig{}
		for _, s := range cfg.Sellers {
			gc.Sellers = append(gc.Sellers, cmabhs.GameSeller{
				CostQuadratic: s.CostQuadratic,
				CostLinear:    s.CostLinear,
				Quality:       s.ExpectedQuality,
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmabhs.SolveGame(gc); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"snapshot_save_m100", func(b *testing.B) {
		sess := benchSession(100, 5, 1000)
		if _, err := sess.AdvanceContext(context.Background(), 50); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Save(); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"snapshot_resume_m300_k10", func(b *testing.B) {
		// What a broker restart pays per job: ResumeSession of an
		// m300/k10 save at round 2500, inside the broker's advance
		// workload age band.
		sess := benchSession(300, 10, 5000)
		if _, err := sess.AdvanceContext(context.Background(), 2500); err != nil {
			b.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmabhs.ResumeSession(data); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"snapshot_resume_m20_k5", func(b *testing.B) {
		// The restart cost of one job of the broker's read-mostly
		// workload: ResumeSession of an m20/k5 save at round 150,
		// the snapshot workload's job size.
		sess := benchSession(20, 5, 1000)
		if _, err := sess.AdvanceContext(context.Background(), 149); err != nil {
			b.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmabhs.ResumeSession(data); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"store_save_m20_k5", func(b *testing.B) {
		// A steady-state snapshot save on the broker's file store: an
		// m20/k5 save at round 150 (the snapshot workload's job size)
		// written over an earlier one, as every save after a job's
		// first does, into a fresh directory under the temp dir.
		sess := benchSession(20, 5, 1000)
		if _, err := sess.AdvanceContext(context.Background(), 149); err != nil {
			b.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "cdt-bench-store-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		fs, err := server.NewFileStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.Save("job-1", data); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Save("job-1", data); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"tracing_span_start_end", func(b *testing.B) {
		tr := tracing.NewSeeded(1, 64)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := tr.StartSpan(ctx, "bench")
			sp.SetAttr("i", i)
			sp.End()
		}
	}},
	{"traceparent_parse", func(b *testing.B) {
		const h = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := tracing.ParseTraceparent(h); !ok {
				b.Fatal("parse failed")
			}
		}
	}},
}

// runMicroBenches executes the registry, prints an aligned table to
// stdout, and (with -json) writes the machine-readable trajectory.
// The results are returned for -baseline comparison. With reps > 1
// every case runs reps times and each metric is reported as its
// median across the runs — the trajectory CI diffs is a median-of-5,
// so one descheduled run cannot fake a regression (or hide one) — and
// the fastest run's ns/op is kept beside it as min_ns_per_op.
func runMicroBenches(jsonPath string, reps int) ([]BenchResult, error) {
	if reps < 1 {
		reps = 1
	}
	results := make([]BenchResult, 0, len(microBenches))
	fmt.Printf("%-28s %12s %14s %14s %12s %12s\n", "benchmark", "iters", "ns/op", "min ns/op", "B/op", "allocs/op")
	for _, bc := range microBenches {
		runs := make([]BenchResult, reps)
		for i := range runs {
			r := testing.Benchmark(bc.fn)
			runs[i] = BenchResult{
				Name:        bc.name,
				Iters:       r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
		}
		br := medianResult(runs)
		results = append(results, br)
		fmt.Printf("%-28s %12d %14.1f %14.1f %12d %12d\n",
			br.Name, br.Iters, br.NsPerOp, br.MinNsPerOp, br.BytesPerOp, br.AllocsPerOp)
	}
	if jsonPath == "" {
		return results, nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		f.Close()
		return nil, err
	}
	return results, f.Close()
}

// medianResult folds repeated runs of one case into a single record by
// taking each metric's median independently (a run that was slow on
// ns/op was not necessarily the allocation outlier), plus the least
// ns/op. Iters reports the smallest run so the number stays honest
// about measurement depth.
func medianResult(runs []BenchResult) BenchResult {
	out := runs[0]
	ns := make([]float64, len(runs))
	allocs := make([]float64, len(runs))
	bytesPer := make([]float64, len(runs))
	for i, r := range runs {
		ns[i] = r.NsPerOp
		allocs[i] = float64(r.AllocsPerOp)
		bytesPer[i] = float64(r.BytesPerOp)
		if r.Iters < out.Iters {
			out.Iters = r.Iters
		}
	}
	out.NsPerOp = median(ns) // sorts ns
	out.MinNsPerOp = ns[0]
	out.AllocsPerOp = int64(median(allocs))
	out.BytesPerOp = int64(median(bytesPer))
	return out
}

// median returns the middle value (lower-middle for even counts) of
// xs, sorting in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}
