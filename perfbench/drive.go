package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is what an open-loop phase measured. Latencies are in
// milliseconds from each request's scheduled send time.
type openResult struct {
	lat, advLat, readLat []float64
	lag                  []float64 // dispatch delay behind schedule, ms
	attempted, failed    int
	failures             map[string]int // failed arrivals by op and status
	traceIDs             []string       // per arrival, for the ledger
	elapsed              time.Duration
}

// openChunk is how much of the schedule runs between two reference
// measurements.
const openChunk = time.Second

// spinWindow is how long before a due time the dispatcher stops
// sleeping and polls the clock instead: a sleep on this VM overshoots
// by about half a millisecond, which would otherwise be most of a
// request's measured latency.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at t: it sleeps until spinWindow before t, then
// yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpen plays a precomputed schedule against b: each arrival is
// dispatched at its scheduled time regardless of how many requests
// are still in flight. The schedule runs in chunks of openChunk; after
// each the requests in flight finish, the reference is measured, and
// the chunk's latencies are scaled to the reference speed (see gauge).
// Job retirements (see retireIfDue) run after the triggering advance's
// latency is taken.
func runOpen(b *broker, s *schedule) openResult {
	n := len(s.arrivals)
	lat := make([]float64, n)
	lag := make([]float64, n)
	ok := make([]bool, n)
	codes := make([]int, n)
	traces := make([]string, n)
	var housekeeping, hkFailed atomic.Int64

	g := newGauge(1)
	start := time.Now()
	for lo := 0; lo < n; {
		chunk := s.arrivals[lo].at / openChunk
		hi := lo
		for hi < n && s.arrivals[hi].at/openChunk == chunk {
			hi++
		}
		var wg sync.WaitGroup
		c0 := time.Now()
		for i := lo; i < hi; i++ {
			a := s.arrivals[i]
			due := c0.Add(a.at - chunk*openChunk)
			waitUntil(due)
			lag[i] = float64(time.Since(due)) / 1e6
			wg.Add(1)
			go func(i int, a arrival, due time.Time) {
				defer wg.Done()
				r := b.do(a.op, a.slot)
				lat[i] = float64(time.Since(due)) / 1e6
				ok[i], codes[i], traces[i] = r.ok, r.code, r.traceID
				made, failed := b.retireIfDue(a.slot, r.adv)
				housekeeping.Add(int64(made))
				hkFailed.Add(int64(failed))
			}(i, a, due)
		}
		wg.Wait()
		// A request of the open loop runs on an otherwise idle VM,
		// which a host busy with other tenants delays much less than
		// it delays the reference, which keeps every CPU busy. So the
		// latencies are scaled by the speed that leaves stolen time out.
		f := g.step().cpu
		for i := lo; i < hi; i++ {
			lat[i] /= f
		}
		lo = hi
	}
	res := openResult{lag: lag, traceIDs: traces, elapsed: time.Since(start), failures: map[string]int{}}
	for i, a := range s.arrivals {
		res.attempted++
		l := lat[i]
		if !ok[i] {
			// A failed request misses every latency limit: it counts
			// as the whole phase long.
			res.failed++
			res.failures[fmt.Sprintf("%v/%d", a.op, codes[i])]++
			l = float64(res.elapsed) / 1e6
		}
		res.lat = append(res.lat, l)
		switch {
		case a.op == opAdvance:
			res.advLat = append(res.advLat, l)
		case a.op.isRead():
			res.readLat = append(res.readLat, l)
		}
	}
	res.attempted += int(housekeeping.Load())
	res.failed += int(hkFailed.Load())
	return res
}

// closedResult is what a closed-loop phase measured. Rates are scaled
// to the reference speed (see gauge) slice by slice, and the reported
// rate is the median over the slices.
type closedResult struct {
	ok, failed int
	// housekeeping counts the job retirements' requests; they are
	// attempts (and failures) but never successes of the mix.
	housekeeping, hkFailed int
	slices                 int
	okRate                 float64 // successful requests per second
	roundRate              float64 // rounds played per second
	rawOKRate              float64 // okRate before scaling
}

// closedSlice is how long the clients run between two reference
// measurements.
const closedSlice = 200 * time.Millisecond

// runClosed runs `clients` closed-loop clients for about dur: each
// sends its next request as soon as the previous one completes, with
// ops drawn from the workload's closed mix. The clients run in slices
// with the reference measured between them. Rounds are read from the
// broker's own rounds counter.
func runClosed(b *broker, seed int64, clients int, dur time.Duration) closedResult {
	w := b.w
	total := 0
	for _, x := range w.closed {
		total += x
	}
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(subSeed(seed, "client", string(rune('a'+c)))))
	}
	var okN, failN, hkN, hkFailed atomic.Int64
	var okRates, rawRates, roundRates []float64
	runtime.GC() // the earlier phases' garbage is not this phase's cost
	g := newGauge(clients)
	start := time.Now()
	for time.Since(start) < dur {
		rounds0 := counter(b.srv, "cdt_rounds_advanced_total")
		ok0 := okN.Load()
		var wg sync.WaitGroup
		s0 := time.Now()
		deadline := s0.Add(closedSlice)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rngs[c]
				for time.Now().Before(deadline) {
					x := rng.Intn(total)
					op := opKind(0)
					for ; x >= w.closed[op]; op++ {
						x -= w.closed[op]
					}
					slot := rng.Intn(w.jobs)
					if w.ownSlots {
						slot = c % w.jobs
					}
					r := b.do(b.boundChurn(op), slot)
					if r.ok {
						okN.Add(1)
					} else {
						failN.Add(1)
					}
					made, failed := b.retireIfDue(slot, r.adv)
					hkN.Add(int64(made))
					hkFailed.Add(int64(failed))
				}
			}(c)
		}
		wg.Wait()
		el := time.Since(s0).Seconds()
		rounds := counter(b.srv, "cdt_rounds_advanced_total") - rounds0
		f := g.step().wall
		raw := float64(okN.Load()-ok0) / el
		rawRates = append(rawRates, raw)
		okRates = append(okRates, raw*f)
		roundRates = append(roundRates, rounds/el*f)
	}
	return closedResult{
		ok:           int(okN.Load()),
		failed:       int(failN.Load()),
		housekeeping: int(hkN.Load()),
		hkFailed:     int(hkFailed.Load()),
		slices:       len(okRates),
		okRate:       median(okRates),
		roundRate:    median(roundRates),
		rawOKRate:    median(rawRates),
	}
}

// boundChurn keeps the churn pool between the same bounds the open
// loop's schedule keeps: a delete with too few deletable jobs creates
// one instead, a create with too many deletes one.
func (b *broker) boundChurn(op opKind) opKind {
	if op != opCreate && op != opDelete {
		return op
	}
	b.mu.Lock()
	n := len(b.churn)
	b.mu.Unlock()
	switch {
	case op == opDelete && n < b.w.churnJobs:
		return opCreate
	case op == opCreate && n > b.w.churnJobs:
		return opDelete
	}
	return op
}

// subscribers holds the live /events streams attached to a broker,
// one per subscribed slot; a stream follows its slot when the slot's
// job is retired.
type subscribers struct {
	b       *broker
	mu      sync.Mutex
	streams map[int]*stream
	started int
	failed  int
}

type stream struct {
	cancel context.CancelFunc
	done   chan struct{}
	out    *sink
}

// subscribe attaches one event-stream subscriber to each of the first
// n slots' live jobs. Each runs the broker's real stream handler until
// it is moved or stopped.
func subscribe(b *broker, n int) *subscribers {
	subs := &subscribers{b: b, streams: make(map[int]*stream)}
	b.subs = subs
	for slot, id := range b.liveSlotJobs()[:n] {
		subs.start(slot, id)
	}
	return subs
}

func (s *subscribers) start(slot int, id string) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stream{cancel: cancel, done: make(chan struct{}), out: newSink(false)}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil).WithContext(ctx)
	go func() {
		defer close(st.done)
		s.b.h.ServeHTTP(st.out, req)
	}()
	s.streams[slot] = st
	s.started++
}

// end stops one stream, waits for its handler and checks it was
// accepted. Caller holds s.mu.
func (s *subscribers) end(st *stream) {
	st.cancel()
	<-st.done
	if st.out.code != http.StatusOK {
		s.failed++
	}
}

// follow moves a slot's subscriber, if it has one, to the slot's new
// job. A nil receiver (no subscribers) does nothing.
func (s *subscribers) follow(slot int, id string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[slot]
	if !ok {
		return
	}
	s.end(st)
	s.start(slot, id)
}

// stop ends every stream and waits for its handler to return. It
// returns how many streams were opened and how many were refused.
func (s *subscribers) stop() (started, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for slot, st := range s.streams {
		s.end(st)
		delete(s.streams, slot)
	}
	return s.started, s.failed
}
