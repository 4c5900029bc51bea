package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmabhs"
	"cmabhs/internal/core"
	"cmabhs/internal/roundlog"
	"cmabhs/internal/server"
	"cmabhs/internal/telemetry"
	"cmabhs/internal/tracing"
)

// ---- the benchmark's own spans ----

// span is one recorded interval. Parent is the index of the span that
// caused it, or -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	Rounds int    `json:"rounds,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// spanTracer keeps spans in memory; they are written out when the run
// ends. Replays are sequential, so a span started while a request span
// is open is that request's child.
type spanTracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  int // the open request span, or -1
}

func newSpanTracer() *spanTracer { return &spanTracer{epoch: time.Now(), open: -1} }

func (t *spanTracer) begin(name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: t.open, Start: now})
	if name == "server.request" {
		t.open = id
	}
	return id
}

func (t *spanTracer) end(id, bytes, rounds int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Bytes, s.Rounds = now, bytes, rounds
	if t.open == id {
		t.open = -1
	}
}

// selfTimes returns each span's duration minus the part of it its
// children cover, in ns, by span index.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// ---- store spy: spans around every call into the store layer ----

// storeSpy hands out store wrappers that record a span per call while
// its tracer is on, and forward untouched otherwise.
type storeSpy struct{ tr *spanTracer }

func (sp *storeSpy) wrap(st server.Store) server.Store {
	if w, ok := st.(server.RoundWAL); ok {
		return &spyWAL{RoundWAL: w, tr: sp.tr}
	}
	return &spyStore{Store: st, tr: sp.tr}
}

func unwrapStore(st server.Store) server.Store {
	switch s := st.(type) {
	case *spyWAL:
		return s.RoundWAL
	case *spyStore:
		return s.Store
	}
	return st
}

// timed runs fn inside a span when tr is on.
func timed(tr *spanTracer, name string, bytes, rounds int, fn func()) {
	if !tr.on.Load() {
		fn()
		return
	}
	id := tr.begin(name)
	fn()
	tr.end(id, bytes, rounds)
}

type spyStore struct {
	server.Store
	tr *spanTracer
}

func (s *spyStore) Save(id string, data []byte) (err error) {
	timed(s.tr, "store.save", len(data), 0, func() { err = s.Store.Save(id, data) })
	return err
}

func (s *spyStore) Delete(id string) (err error) {
	timed(s.tr, "store.delete", 0, 0, func() { err = s.Store.Delete(id) })
	return err
}

type spyWAL struct {
	server.RoundWAL
	tr *spanTracer
}

func (s *spyWAL) Save(id string, data []byte) (err error) {
	timed(s.tr, "store.save", len(data), 0, func() { err = s.RoundWAL.Save(id, data) })
	return err
}

func (s *spyWAL) Delete(id string) (err error) {
	timed(s.tr, "store.delete", 0, 0, func() { err = s.RoundWAL.Delete(id) })
	return err
}

func (s *spyWAL) ResetWAL(id string, base int) (err error) {
	timed(s.tr, "store.wal_reset", 0, 0, func() { err = s.RoundWAL.ResetWAL(id, base) })
	return err
}

func (s *spyWAL) AppendWALEncoded(id string, data []byte, n int) (total int, err error) {
	timed(s.tr, "store.wal_append", len(data), n, func() { total, err = s.RoundWAL.AppendWALEncoded(id, data, n) })
	return total, err
}

// ---- process counters ----

// procSample is a reading of the Go runtime's allocation and CPU
// counters.
type procSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSample {
	s := append([]metrics.Sample(nil), procMetrics...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procSample{
		mallocs:    uint64(val(0)),
		allocBytes: uint64(val(1)),
		gcCPU:      val(2),
		totalCPU:   val(3),
	}
}

// ---- the traced run ----

// replayBlock is how many requests one untraced or traced block of
// the sequential replay sends; blocks alternate so both see the same
// job ages.
const replayBlock = 100

// layer accumulates one ledger row.
type layer struct {
	name, note string
	us         float64 // per request
}

// replayStats is what the traced blocks of the sequential replay saw.
type replayStats struct {
	requests, rounds         int
	ops                      [numOps]int
	respBytes                int
	wallUntraced, wallTraced time.Duration
	nUntraced                int
	housekeeping             int
	failed                   int
	roundSpans               int
	poolNS                   float64
	poolN                    int
}

// runTraced replays the workload with the benchmark's spans around
// every call into a layer and reports the per-layer metrics and the
// ledger. End-to-end metrics never come from this run.
func runTraced(c runConfig) (*output, error) {
	w := c.w
	tr := newSpanTracer()
	spy := &storeSpy{tr: tr}
	sched := buildSchedule(w, subSeed(c.seed, w.name, "open"), c.rate, c.span(0.5))
	b, err := setUp(w, spy)
	if err != nil {
		return nil, err
	}
	b.tr = tr
	defer b.tearDown()
	subs := subscribe(b, w.subscribers)

	// Open loop, untraced: process counters, generator lag, sheds and
	// the server's own spans per request.
	shed0 := counter(b.srv, "cdt_http_shed_total")
	p0 := readProc()
	open := runOpen(b, sched)
	p1 := readProc()
	sheds := counter(b.srv, "cdt_http_shed_total") - shed0
	if lp := quantile(open.lag, 0.99); lp > lagBound {
		subs.stop()
		return nil, fmt.Errorf("%w: generator lag p99 %.2f ms exceeds %.0f ms", errInvalid, lp, lagBound)
	}
	spansPerReq := serverSpansPerRequest(b.srv, open.traceIDs)

	rs, err := restart(b, 1)
	if err != nil {
		subs.stop()
		return nil, err
	}
	closed := runClosed(b, subSeed(c.seed, w.name, "closed"), clients(), c.span(0.15))

	rp := replay(b, c, tr)
	subsN, subsFailed := subs.stop()
	final := gateJobs(b.h, b.liveSpecs(), nil)
	gate := rs.gate
	gate.add(final)

	pr, err := probe(b)
	if err != nil {
		return nil, err
	}

	out := &output{
		Attempted: open.attempted + closed.ok + closed.failed + closed.housekeeping + rp.requests + rp.nUntraced + rp.housekeeping + gate.checks + subsN,
		Failed:    open.failed + closed.failed + closed.hkFailed + rp.failed + len(gate.failures) + subsFailed,
		Metrics:   metricSet{},
	}
	out.Correct = len(gate.failures) == 0
	for _, f := range gate.failures {
		fmt.Fprintln(os.Stderr, "gate:", f)
	}

	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	led := buildLedger(w, rp, pr, spans)

	m := out.Metrics
	n := float64(rp.requests)
	openReqs := float64(open.attempted)
	m.put("server.request_us", led.requestUS)
	m.put("server.fixed_us", pr.fixedUS)
	m.put("server.residual_us", led.residualUS)
	m.put("server.resp_bytes_per_req", float64(rp.respBytes)/n)
	m.put("server.encode_us", led.row("server.encode"))
	m.put("engine.pool_acquire_ns", rp.poolNS/max(1, float64(rp.poolN)))
	m.put("engine.shed_frac", sheds/max(1, float64(sched.count(opAdvance))))
	m.put("core.round_us", pr.roundUS)
	m.put("core.round_observed_us", pr.roundObservedUS)
	m.put("core.ucb_snapshot_us", pr.roundObservedUS-pr.roundUS)
	m.put("roundlog.encode_us_per_round", pr.encodeUSPerRound)
	m.put("roundlog.bytes_per_round", pr.bytesPerRound)
	m.put("telemetry.record_ns", pr.recordNS)
	m.put("tracing.spans_per_req", spansPerReq)
	m.put("tracing.span_ns", pr.spanNS)
	m.put("store.wal_append_us", pr.walAppendUS)
	m.put("store.snapshot_save_us", meanSpan(spans, "store.save")/1e3)
	m.put("store.write_bytes_per_round", (sumField(spans, "store.wal_append")+sumField(spans, "store.save"))/max(1, float64(rp.rounds)))
	allRounds := counter(b.srv, "cdt_rounds_advanced_total")
	m.put("store.compactions_per_kround", counter(b.srv, "cdt_wal_compactions_total")/max(1, allRounds/1e3))
	m.put("store.replayed_rounds", rs.replayed)
	m.put("session.save_us", led.saveUSPerCall)
	m.put("process.allocs_per_req", float64(p1.mallocs-p0.mallocs)/openReqs)
	m.put("process.alloc_bytes_per_req", float64(p1.allocBytes-p0.allocBytes)/openReqs)
	m.put("process.gc_cpu_frac", (p1.gcCPU-p0.gcCPU)/max(1e-9, p1.totalCPU-p0.totalCPU))
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"p99_ms", open.lat}, {"advance_p99_ms", open.advLat}, {"read_p99_ms", open.readLat}, {"loadgen.lag_p99_ms", open.lag}} {
		if err := m.putTail(t.name, t.xs, 0.99); err != nil {
			return nil, err
		}
	}
	m.put("ledger.attributed_us", led.attributedUS)
	m.put("ledger.predicted_rps", led.predictedRPS)
	m.put("ledger.measured_rps", closed.rawOKRate)
	m.put("bench.trace_overhead_frac", rp.overhead())
	m.put("failed_frac", float64(out.Failed)/float64(out.Attempted))
	m.put("events.dropped", counter(b.srv, "cdt_job_events_dropped_total"))

	fmt.Fprintf(os.Stderr, "%s seed=%d traced: open loop %d req (%d advance, %d read), closed loop %d ok, replay %d traced + %d untraced req, %d gate checks, %d failed\n",
		w.name, c.seed, open.attempted, len(open.advLat), len(open.readLat), closed.ok, rp.requests, rp.nUntraced, gate.checks, out.Failed)
	led.print(os.Stdout, w, m)
	if err := writeSpans(w.name, c.seed, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
	}
	return out, m.check(perLayerNames)
}

func (s *schedule) count(op opKind) int {
	n := 0
	for _, a := range s.arrivals {
		if a.op == op {
			n++
		}
	}
	return n
}

// overhead is the traced replay's extra wall time per request over
// the untraced one, as a share of the untraced.
func (r replayStats) overhead() float64 {
	if r.nUntraced == 0 || r.requests == 0 {
		return 0
	}
	u := r.wallUntraced.Seconds() / float64(r.nUntraced)
	t := r.wallTraced.Seconds() / float64(r.requests)
	return (t - u) / u
}

// serverSpansPerRequest averages the span count of the requests'
// traces still held in the broker's own trace store.
func serverSpansPerRequest(srv *server.Server, ids []string) float64 {
	st := srv.Tracing().Store()
	var spans, n int
	for i := len(ids) - 1; i >= 0 && n < tracing.DefaultCapacity/2; i-- {
		if ids[i] == "" {
			continue
		}
		if d, ok := st.Trace(ids[i]); ok {
			spans += len(d.Spans) + d.Dropped
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(spans) / float64(n)
}

// replay sends the workload's requests one at a time, alternating
// untraced and traced blocks, until its share of the run is used.
func replay(b *broker, c runConfig, tr *spanTracer) replayStats {
	w := b.w
	sched := buildSchedule(w, subSeed(c.seed, w.name, "replay"), 1000, 60*time.Second)
	var rs replayStats
	deadline := time.Now().Add(c.span(0.25))
	next := 0
	send := func(traced bool) {
		a := sched.arrivals[next%len(sched.arrivals)]
		next++
		tr.on.Store(traced)
		r := b.do(b.boundChurn(a.op), a.slot)
		tr.on.Store(false)
		if !r.ok {
			rs.failed++
		}
		if traced {
			rs.requests++
			rs.ops[a.op]++
			rs.respBytes += r.bytes
			if a.op == opAdvance {
				rs.rounds += w.advRounds
			}
			if d, ok := b.srv.Tracing().Store().Trace(r.traceID); ok {
				for _, sp := range d.Spans {
					switch sp.Name {
					case "round":
						rs.roundSpans++
					case "pool.acquire":
						rs.poolNS += sp.Duration * 1e9
						rs.poolN++
					}
				}
				rs.roundSpans += d.Dropped
			}
		}
		made, failed := b.retireIfDue(a.slot, r.adv)
		rs.housekeeping += made
		rs.failed += failed
	}
	for time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < replayBlock; i++ {
			send(false)
		}
		rs.wallUntraced += time.Since(start)
		rs.nUntraced += replayBlock
		start = time.Now()
		for i := 0; i < replayBlock; i++ {
			send(true)
		}
		rs.wallTraced += time.Since(start)
	}
	return rs
}

// ---- layer probes: the benchmark's calls into each layer's public
// functions, at the workload's shape ----

type probeStats struct {
	fixedUS                     float64
	roundUS, roundObservedUS    float64
	recordNS, spanNS            float64
	encodeUSPerRound            float64
	bytesPerRound               float64
	saveNSPerByte               float64
	saveUS                      float64
	advEncodeUS, statusEncodeUS float64
	snapEncodeNSPerByte         float64
	walAppendUS                 float64
}

// probeReps is how many timed blocks each probe takes; each probe
// reports the median block.
const probeReps = 7

// medianBlock times fn `reps` times over `iters` iterations and
// returns the median per-iteration time in ns.
func medianBlock(reps, iters int, fn func()) float64 {
	var per []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(iters))
	}
	return median(per)
}

func probe(b *broker) (probeStats, error) {
	w := b.w
	var p probeStats

	// server.fixed: a 404 on an unknown job id pays the middleware,
	// routing and the error envelope, and nothing else.
	p.fixedUS = medianBlock(probeReps, 200, func() {
		b.serve(http.MethodGet, "/v1/jobs/job-missing", "", false)
	}) / 1e3

	// core: the same job advanced with and without a no-op observer,
	// alternating blocks so both see the same ages.
	cfg := cmabhs.RandomConfig(w.m, w.k, horizon, subSeed(marketSeed, w.name, "probe"))
	bare, err := cmabhs.NewSession(cfg)
	if err != nil {
		return p, err
	}
	obs, err := cmabhs.NewSession(cfg)
	if err != nil {
		return p, err
	}
	obs.Observe(func(*cmabhs.RoundEvent) {})
	ctx := context.Background()
	for _, s := range []*cmabhs.Session{bare, obs} {
		if _, err := s.AdvanceContext(ctx, 500); err != nil {
			return p, err
		}
	}
	iters := max(1, 2000/w.advRounds)
	var rb, ro []float64
	for r := 0; r < probeReps; r++ {
		rb = append(rb, medianBlock(1, iters, func() { bare.AdvanceContext(ctx, w.advRounds) }))
		ro = append(ro, medianBlock(1, iters, func() { obs.AdvanceContext(ctx, w.advRounds) }))
	}
	p.roundUS = median(rb) / float64(w.advRounds) / 1e3
	p.roundObservedUS = median(ro) / float64(w.advRounds) / 1e3

	// telemetry: one point recorded into a default-capacity ring.
	rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
	round := 0
	p.recordNS = medianBlock(probeReps, 20000, func() {
		round++
		rec.Record(telemetry.Point{Round: round, Regret: float64(round), Revenue: 1, Spend: 1})
	})

	// tracing: one round span as the broker records it — backdated
	// start, two attributes — under a request span.
	tracer := tracing.New(tracing.DefaultCapacity)
	var pctx context.Context
	var parent *tracing.Span
	nSpans := 0
	p.spanNS = medianBlock(probeReps, 5000, func() {
		if nSpans%25 == 0 {
			if parent != nil {
				parent.End()
			}
			pctx, parent = tracer.StartSpan(ctx, "http POST /v1/jobs/{id}/advance")
		}
		nSpans++
		_, sp := tracer.StartSpanAt(pctx, "round", time.Now())
		sp.SetAttr("job_id", "job-1")
		sp.SetAttr("round", nSpans)
		sp.End()
	})

	// roundlog: a played round encoded as a WAL entry line.
	adv, err := bare.AdvanceContext(ctx, w.advRounds)
	if err != nil {
		return p, err
	}
	played := adv.Played
	var buf []byte
	i := 0
	p.encodeUSPerRound = medianBlock(probeReps, 2000, func() {
		r := &played[i%len(played)]
		i++
		recd := core.RoundRecord{
			Round: r.Round, Selected: r.Selected, PJ: r.ConsumerPrice, P: r.PlatformPrice,
			Taus: r.SensingTimes, TotalTau: r.TotalTime, PoC: r.ConsumerProfit, PoP: r.PlatformProfit,
			SellerProfits: r.SellerProfits, NoTrade: r.NoTrade, Realized: r.Realized, AggRMSE: r.AggregationRMSE,
		}
		buf, _ = roundlog.AppendSegmentRecord(buf[:0], &recd)
	}) / 1e3
	p.bytesPerRound = float64(len(buf))

	// store.wal_append: one advance's rounds, encoded as the broker
	// encodes them, appended to a WALStore segment with its fsync. The
	// probe runs on every workload, also those whose broker keeps no
	// WAL.
	var entry []byte
	for j := range played {
		r := &played[j]
		recd := core.RoundRecord{
			Round: r.Round, Selected: r.Selected, PJ: r.ConsumerPrice, P: r.PlatformPrice,
			Taus: r.SensingTimes, TotalTau: r.TotalTime, PoC: r.ConsumerProfit, PoP: r.PlatformProfit,
			SellerProfits: r.SellerProfits, NoTrade: r.NoTrade, Realized: r.Realized, AggRMSE: r.AggregationRMSE,
		}
		entry, _ = roundlog.AppendSegmentRecord(entry, &recd)
	}
	if p.walAppendUS, err = probeWAL(w.name, entry, len(played)); err != nil {
		return p, err
	}

	// session: Save of the probe job, per snapshot byte.
	snap, err := obs.Save()
	if err != nil {
		return p, err
	}
	p.saveUS = medianBlock(3, 3, func() { _, _ = obs.Save() }) / 1e3
	p.saveNSPerByte = p.saveUS * 1e3 / float64(len(snap))

	// server.encode: the public response types the handlers write,
	// built from played rounds, JSON-encoded. The broker zeroes the
	// fields a job does not measure (NaN) before encoding, and
	// encoding/json refuses NaN, so the probe zeroes them too.
	res := bare.Result()
	if math.IsNaN(res.AggregationRMSE) {
		res.AggregationRMSE = 0
	}
	if math.IsNaN(res.DynamicRegret) {
		res.DynamicRegret = 0
	}
	st := server.JobStatus{ID: "job-1", Sellers: w.m, K: w.k, Rounds: horizon,
		NextRound: bare.NextRound(), Result: res}
	responses := []any{
		server.AdvanceResponse{Played: played, Status: st},
		st,
		server.SnapshotResponse{ID: "job-1", Persisted: true, Snapshot: snap},
	}
	enc := json.NewEncoder(io.Discard)
	for _, r := range responses {
		if err := enc.Encode(r); err != nil {
			return p, fmt.Errorf("encode probe: %w", err)
		}
	}
	p.advEncodeUS = medianBlock(probeReps, 200, func() { _ = enc.Encode(responses[0]) }) / 1e3
	p.statusEncodeUS = medianBlock(probeReps, 500, func() { _ = enc.Encode(responses[1]) }) / 1e3
	p.snapEncodeNSPerByte = medianBlock(3, 3, func() { _ = enc.Encode(responses[2]) }) / float64(len(snap))
	return p, nil
}

// probeWAL times appends of entry (n encoded rounds) to a fresh
// WALStore segment in a scratch state directory, fsync included, and
// returns the median per append in µs.
func probeWAL(name string, entry []byte, n int) (float64, error) {
	dir, err := newStateDir(name + "-walprobe")
	if err != nil {
		return 0, err
	}
	defer removeState(dir)
	ws, err := server.NewWALStore(dir)
	if err != nil {
		return 0, err
	}
	defer ws.Close()
	if err := ws.ResetWAL("probe", 1); err != nil {
		return 0, err
	}
	var aerr error
	us := medianBlock(probeReps, 20, func() {
		if _, err := ws.AppendWALEncoded("probe", entry, n); err != nil {
			aerr = err
		}
	}) / 1e3
	return us, aerr
}

// ---- the ledger ----

type ledger struct {
	rows                                []layer
	requestUS, attributedUS, residualUS float64
	predictedRPS, saveUSPerCall         float64
	spanTable                           []spanRow
}

type spanRow struct {
	name    string
	count   int
	totalMS float64
	selfMS  float64
}

func (l *ledger) row(name string) float64 {
	for _, r := range l.rows {
		if r.name == name {
			return r.us
		}
	}
	return 0
}

func meanSpan(spans []span, name string) float64 {
	var t float64
	n := 0
	for i := range spans {
		if spans[i].Name == name {
			t += spans[i].dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

func sumField(spans []span, name string) float64 {
	var t float64
	for i := range spans {
		if spans[i].Name == name {
			t += float64(spans[i].Bytes)
		}
	}
	return t
}

func sumSpan(spans []span, name string) float64 {
	var t float64
	for i := range spans {
		if spans[i].Name == name {
			t += spans[i].dur()
		}
	}
	return t
}

// buildLedger turns the traced replay and the probes into per-request
// rows that sum, with the residual, to the measured handler time.
func buildLedger(w *workload, rp replayStats, pr probeStats, spans []span) *ledger {
	l := &ledger{}
	n := float64(max(1, rp.requests))
	rounds := float64(rp.rounds)
	l.requestUS = sumSpan(spans, "server.request") / 1e3 / n
	add := func(name, note string, us float64) {
		l.rows = append(l.rows, layer{name: name, note: note, us: us})
	}
	add("server.fixed", "middleware, routing, error envelope (404 probe)", pr.fixedUS)
	add("engine.pool_acquire", "advance admission (server pool.acquire spans)", rp.poolNS/1e3/n)
	add("core.round", "mechanism round via Session.AdvanceContext, incl. the per-round copy (item 1b)", pr.roundUS*rounds/n)
	add("core.ucb_snapshot", "Eq. 19 index scan paid once an observer is attached (item 1a)", (pr.roundObservedUS-pr.roundUS)*rounds/n)
	add("telemetry.record", "series ring point per round", pr.recordNS*rounds/1e3/n)
	add("tracing.round_spans", "round spans recorded per advance", pr.spanNS*float64(rp.roundSpans)/1e3/n)
	if w.store == storeWAL {
		add("roundlog.encode", "WAL entry encode per round", pr.encodeUSPerRound*rounds/n)
		add("store.wal_append", "append + fsync", sumSpan(spans, "store.wal_append")/1e3/n)
	}
	if w.store != storeNone {
		add("store.save", "snapshot write + fsync + rename", sumSpan(spans, "store.save")/1e3/n)
		add("store.other", "segment reset, delete", (sumSpan(spans, "store.wal_reset")+sumSpan(spans, "store.delete"))/1e3/n)
	}
	saved := sumField(spans, "store.save")
	saveCalls := 0
	for i := range spans {
		if spans[i].Name == "store.save" {
			saveCalls++
		}
	}
	add("session.save", "Session.Save behind every stored snapshot (bytes × probe ns/B)", saved*pr.saveNSPerByte/1e3/n)
	if saveCalls > 0 {
		l.saveUSPerCall = saved * pr.saveNSPerByte / 1e3 / float64(saveCalls)
	} else {
		l.saveUSPerCall = pr.saveUS
	}
	encode := float64(rp.ops[opAdvance])*pr.advEncodeUS + float64(rp.ops[opStatus])*pr.statusEncodeUS
	if rp.ops[opSnapshot] > 0 {
		// The snapshot response is mostly the snapshot bytes.
		encode += saved * pr.snapEncodeNSPerByte / 1e3
	}
	add("server.encode", "JSON encode of AdvanceResponse/JobStatus/SnapshotResponse", encode/n)
	for _, r := range l.rows {
		l.attributedUS += r.us
	}
	l.residualUS = l.requestUS - l.attributedUS
	if l.attributedUS > 0 {
		l.predictedRPS = float64(clients()) / (l.attributedUS / 1e6)
	}

	self := selfTimes(spans)
	byName := map[string]*spanRow{}
	for i := range spans {
		r := byName[spans[i].Name]
		if r == nil {
			r = &spanRow{name: spans[i].Name}
			byName[spans[i].Name] = r
		}
		r.count++
		r.totalMS += spans[i].dur() / 1e6
		r.selfMS += self[i] / 1e6
	}
	for _, r := range byName {
		l.spanTable = append(l.spanTable, *r)
	}
	sort.Slice(l.spanTable, func(a, b int) bool { return l.spanTable[a].name < l.spanTable[b].name })
	return l
}

func (l *ledger) print(out io.Writer, w *workload, m metricSet) {
	fmt.Fprintf(out, "ledger %s (per request, µs; %d CPUs)\n", w.name, clients())
	for _, r := range l.rows {
		fmt.Fprintf(out, "  %-22s %10.2f  %s\n", r.name, r.us, r.note)
	}
	fmt.Fprintf(out, "  %-22s %10.2f  sum of the rows above\n", "ledger.attributed", l.attributedUS)
	fmt.Fprintf(out, "  %-22s %10.2f  unattributed; holds the reflective NaN scrub of every response (item 1b) and hub fan-out\n", "server.residual", l.residualUS)
	fmt.Fprintf(out, "  %-22s %10.2f  measured handler time (benchmark span around ServeHTTP)\n", "server.request", l.requestUS)
	if l.residualUS < 0 {
		// The probe rows claim more than the handler took: some probe
		// costs more alone than inside the broker.
		warn := fmt.Sprintf("  OVER-ATTRIBUTED: the rows exceed server.request by %.2f µs; server.residual is negative\n", -l.residualUS)
		fmt.Fprint(out, warn)
		fmt.Fprint(os.Stderr, w.name+":"+warn)
	}
	fmt.Fprintf(out, "  item 1a  core.ucb_snapshot_us = %.3f µs per round at m%d\n", m["core.ucb_snapshot_us"].Value, w.m)
	fmt.Fprintf(out, "  item 1b  round copy inside core.round, reflective scrub inside server.residual\n")
	fmt.Fprintf(out, "  capacity: predicted %.0f req/s (%d CPUs ÷ %.1f µs attributed), measured %.0f req/s\n",
		l.predictedRPS, clients(), l.attributedUS, m["ledger.measured_rps"].Value)
	fmt.Fprintf(out, "  tracing overhead of the traced replay: %+.1f%%\n", 100*m["bench.trace_overhead_frac"].Value)
	fmt.Fprintf(out, "  spans (count, total ms, self ms):\n")
	for _, r := range l.spanTable {
		fmt.Fprintf(out, "    %-18s %7d %10.2f %10.2f\n", r.name, r.count, r.totalMS, r.selfMS)
	}
}

// writeSpans writes the run's spans as JSON under the build directory.
func writeSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	file := fmt.Sprintf("%s-seed%d.json", strings.ReplaceAll(name, "/", "_"), seed)
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}
