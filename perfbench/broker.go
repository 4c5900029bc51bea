package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cmabhs/internal/server"
	"cmabhs/internal/telemetry"
	"cmabhs/internal/tracing"
)

// jobSpec is what the generator sent to create a job: enough to
// rebuild its configuration through the public API for the gate.
type jobSpec struct {
	m, k int
	seed int64
}

// broker is one in-process server under test plus the generator's
// view of its jobs.
type broker struct {
	w    *workload
	srv  *server.Server
	h    http.Handler
	dir  string      // state directory ("" without a store)
	tr   *spanTracer // spans around ServeHTTP while on (traced runs)
	subs *subscribers

	slots   []*slot
	churned atomic.Int64 // churn jobs created, for their market seeds
	sheds   atomic.Int64 // requests shed with 429 and retried

	mu    sync.Mutex
	specs map[string]jobSpec
	churn []string // deletable jobs (mixed workload)
}

// slot is one base job's place. When the job retires a fresh one takes
// the place. Every request aimed at the slot holds mu shared for its
// whole call, so a retirement waits for the requests still on the old
// job. An advance belongs to the job generation its dispatch count
// names: one dispatched past its job's share waits for the fresh job.
// So every job plays exactly its share, and its age at any count of
// advances is the same in every run, however requests overlap.
type slot struct {
	mu   sync.RWMutex
	turn *sync.Cond // broadcast when gen moves; waits hold mu shared
	id   string
	gen  int64        // generation of the job in id
	adv  atomic.Int64 // advances dispatched to the slot
}

func newSlot(id string) *slot {
	sl := &slot{id: id}
	sl.turn = sync.NewCond(sl.mu.RLocker())
	return sl
}

// newServer configures a broker like cdt-server's defaults: tracing
// and metrics on, 16 advance slots, a 2-minute request timeout, and an
// info-level access log whose formatting is paid but whose bytes are
// discarded.
func newServer(store server.Store) *server.Server {
	lg, err := tracing.NewLogger(io.Discard, "text", "info")
	if err != nil {
		panic(err) // fixed, valid arguments
	}
	srv := server.New()
	srv.MaxConcurrentAdvances = 16
	srv.Shards = 16
	srv.SeriesCapacity = telemetry.DefaultCapacity
	srv.CompactEvery = 4096
	srv.RequestTimeout = 2 * time.Minute
	srv.MaxBodyBytes = 1 << 20
	srv.ShedRetryAfter = time.Second
	srv.Logger = lg
	srv.Tracer = tracing.New(tracing.DefaultCapacity)
	srv.Store = store
	return srv
}

// openStore opens the workload's store kind on dir, wrapped in spy
// when one is given.
func openStore(kind storeKind, dir string, spy *storeSpy) (server.Store, error) {
	var st server.Store
	switch kind {
	case storeNone:
		return nil, nil
	case storeWAL:
		ws, err := server.NewWALStore(dir)
		if err != nil {
			return nil, err
		}
		st = ws
	case storeFile:
		fs, err := server.NewFileStore(dir)
		if err != nil {
			return nil, err
		}
		st = fs
	}
	if spy != nil {
		return spy.wrap(st), nil
	}
	return st, nil
}

// closeStore releases a WAL store's segment handles.
func closeStore(srv *server.Server) {
	if c, ok := unwrapStore(srv.Store).(io.Closer); ok {
		_ = c.Close()
	}
}

// stateRoot is where every run keeps its state directories: inside
// the checkout, next to the benchmark's build output.
func stateRoot() string { return filepath.Join(".bench_build", "state") }

func newStateDir(tag string) (string, error) {
	if err := os.MkdirAll(stateRoot(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(stateRoot(), tag+"-")
}

// sink is the generator's ResponseWriter: it keeps the status and the
// byte count, and the body only when asked.
type sink struct {
	hdr  http.Header
	code int
	n    int
	body *bytes.Buffer
}

func newSink(keep bool) *sink {
	s := &sink{hdr: make(http.Header)}
	if keep {
		s.body = new(bytes.Buffer)
	}
	return s
}

func (s *sink) Header() http.Header { return s.hdr }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.n += len(b)
	if s.body != nil {
		s.body.Write(b)
	}
	return len(b), nil
}

// Flush lets the event stream run through the generator's writer.
func (s *sink) Flush() {}

func (s *sink) ok() bool { return s.code >= 200 && s.code < 300 }

// result is the outcome of one request.
type result struct {
	ok      bool
	adv     int64 // an advance's dispatch count on its slot; 0 for other ops
	code    int   // HTTP status of a per-job op; 0 for create/delete
	bytes   int
	traceID string
}

// serve runs one request through the broker's handler.
func (b *broker) serve(method, target, body string, keep bool) *sink {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	out := newSink(keep)
	if b.tr == nil || !b.tr.on.Load() {
		b.h.ServeHTTP(out, req)
		return out
	}
	id := b.tr.begin("server.request")
	b.h.ServeHTTP(out, req)
	b.tr.end(id, out.n, 0)
	return out
}

// marketSeed fixes the markets: the n-th job to hold a slot, and the
// n-th churn job, draw the same sellers in every run. The run seed
// varies the traffic — arrival times, op order, targets — not the
// economy, so a difference between seeds is not a difference between
// markets' costs.
const marketSeed = 20210419

// createJob creates one job with the workload's shape and the market
// named by key, records its spec, and returns its id.
func (b *broker) createJob(key string) (string, bool) {
	spec := jobSpec{m: b.w.m, k: b.w.k, seed: subSeed(marketSeed, b.w.name, key)}
	body := fmt.Sprintf(`{"random_sellers":%d,"k":%d,"rounds":%d,"seed":%d}`, spec.m, spec.k, horizon, spec.seed)
	out := b.serve(http.MethodPost, "/v1/jobs", body, true)
	if !out.ok() {
		return "", false
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out.body.Bytes(), &st); err != nil || st.ID == "" {
		return "", false
	}
	b.mu.Lock()
	b.specs[st.ID] = spec
	b.mu.Unlock()
	return st.ID, true
}

func (b *broker) deleteJob(id string) bool {
	out := b.serve(http.MethodDelete, "/v1/jobs/"+id, "", false)
	b.mu.Lock()
	delete(b.specs, id)
	b.mu.Unlock()
	return out.ok()
}

// advance plays the workload's rounds on one job.
func (b *broker) advance(id string, rounds int) *sink {
	return b.serve(http.MethodPost, "/v1/jobs/"+id+"/advance", fmt.Sprintf(`{"rounds":%d}`, rounds), false)
}

// jobOp sends a per-job op; list/stats ignore id.
func (b *broker) jobOp(op opKind, id string) *sink {
	switch op {
	case opAdvance:
		return b.advance(id, b.w.advRounds)
	case opStatus:
		return b.serve(http.MethodGet, "/v1/jobs/"+id, "", false)
	case opSeries:
		return b.serve(http.MethodGet, "/v1/jobs/"+id+"/series?metric=regret", "", false)
	case opEstimates:
		return b.serve(http.MethodGet, "/v1/jobs/"+id+"/estimates", "", false)
	case opList:
		return b.serve(http.MethodGet, "/v1/jobs", "", false)
	case opStats:
		return b.serve(http.MethodGet, "/v1/stats", "", false)
	case opSnapshot:
		return b.serve(http.MethodPost, "/v1/jobs/"+id+"/snapshot", "", false)
	}
	panic("jobOp: " + op.String())
}

// createChurn creates one job for the churn pool.
func (b *broker) createChurn() (string, bool) {
	return b.createJob(fmt.Sprint("churn", b.churned.Add(1)))
}

// do sends one op of the workload. Slot i picks the base job; create
// and delete work on the churn pool.
func (b *broker) do(op opKind, i int) result {
	switch op {
	case opCreate:
		id, ok := b.createChurn()
		if ok {
			b.mu.Lock()
			b.churn = append(b.churn, id)
			b.mu.Unlock()
		}
		return result{ok: ok}
	case opDelete:
		b.mu.Lock()
		if len(b.churn) == 0 {
			b.mu.Unlock()
			return result{}
		}
		id := b.churn[len(b.churn)-1]
		b.churn = b.churn[:len(b.churn)-1]
		b.mu.Unlock()
		return result{ok: b.deleteJob(id)}
	}
	sl := b.slots[i]
	sl.mu.RLock()
	var n int64
	if op == opAdvance {
		n = sl.adv.Add(1)
		if per := int64(b.w.retireAdvances()); per > 0 {
			for sl.gen < (n-1)/per {
				sl.turn.Wait()
			}
		}
	}
	out := b.jobOp(op, sl.id)
	for out.code == http.StatusTooManyRequests {
		// A shed advance is retried, as a client honouring the 429
		// would; its latency keeps counting from its scheduled time.
		b.sheds.Add(1)
		time.Sleep(shedBackoff)
		out = b.jobOp(op, sl.id)
	}
	sl.mu.RUnlock()
	return result{ok: out.ok(), adv: n, code: out.code, bytes: out.n, traceID: traceIDOf(out)}
}

// shedBackoff is how long the generator waits before it resends a
// request the broker shed.
const shedBackoff = time.Millisecond

// createSlotJob creates the gen-th job to hold slot i.
func (b *broker) createSlotJob(i int, gen int64) (string, bool) {
	return b.createJob(fmt.Sprintf("slot%d.%d", i, gen))
}

// retireIfDue runs once a request sent to slot i has returned. When
// it was the advance that ends the job's share (its dispatch count n
// is a multiple of the share), the job retires: a fresh job is
// created, takes the slot (and its event subscriber) once the requests
// still on the old job have finished, and the old job is deleted.
// Every loop retires jobs this way. The retirement is the generator's
// housekeeping, not an op of the workload's mix: it returns how many
// housekeeping requests it made and how many of them failed.
func (b *broker) retireIfDue(i int, n int64) (made, failed int) {
	per := int64(b.w.retireAdvances())
	if n == 0 || per == 0 || n%per != 0 {
		return 0, 0
	}
	sl := b.slots[i]
	id, ok := b.createSlotJob(i, n/per)
	sl.mu.Lock()
	old := sl.id
	if ok {
		sl.id = id
	}
	sl.gen = n / per // on a failed create the old job plays on
	sl.mu.Unlock()
	sl.turn.Broadcast()
	if !ok {
		return 1, 1
	}
	b.subs.follow(i, id)
	if !b.deleteJob(old) {
		return 2, 1
	}
	return 2, 0
}

// traceIDOf extracts the trace id from the Traceparent response
// header the broker sets on every response.
func traceIDOf(out *sink) string {
	tp := out.hdr.Get("Traceparent")
	if parts := strings.Split(tp, "-"); len(parts) == 4 {
		return parts[1]
	}
	return ""
}

// setUp builds a broker for w: server and store, one job per slot,
// churn jobs, and warm-up advances on each slot's job.
func setUp(w *workload, spy *storeSpy) (*broker, error) {
	b := &broker{w: w, specs: make(map[string]jobSpec)}
	if w.store != storeNone {
		dir, err := newStateDir(w.name)
		if err != nil {
			return nil, err
		}
		b.dir = dir
	}
	st, err := openStore(w.store, b.dir, spy)
	if err != nil {
		return nil, err
	}
	b.srv = newServer(st)
	b.h = b.srv.Handler()
	for i := 0; i < w.jobs; i++ {
		id, ok := b.createSlotJob(i, 0)
		if !ok {
			return nil, fmt.Errorf("set-up: create job failed")
		}
		b.slots = append(b.slots, newSlot(id))
	}
	for i := 0; i < w.churnJobs; i++ {
		id, ok := b.createChurn()
		if !ok {
			return nil, fmt.Errorf("set-up: create churn job failed")
		}
		b.churn = append(b.churn, id)
	}
	for i, sl := range b.slots {
		if n := w.warmRounds(i); n > 0 {
			if out := b.advance(sl.id, n); !out.ok() {
				return nil, fmt.Errorf("set-up: warm-up advance failed: %d", out.code)
			}
		}
	}
	return b, nil
}

// tearDown stops the broker's store and removes its state.
func (b *broker) tearDown() {
	if b.srv != nil {
		closeStore(b.srv)
	}
	removeState(b.dir)
}

// removeState deletes a state directory and flushes the filesystem,
// so the deletion's deferred disk work is paid here, untimed, and not
// inside whatever phase comes next.
func removeState(dirs ...string) {
	for _, d := range dirs {
		if d != "" {
			_ = os.RemoveAll(d)
		}
	}
	syscall.Sync()
}

// liveSlotJobs returns the job holding every slot.
func (b *broker) liveSlotJobs() []string {
	ids := make([]string, 0, len(b.slots))
	for _, sl := range b.slots {
		sl.mu.RLock()
		ids = append(ids, sl.id)
		sl.mu.RUnlock()
	}
	return ids
}
