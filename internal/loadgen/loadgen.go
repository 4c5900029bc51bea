package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cmabhs/client"
	"cmabhs/internal/metrics"
)

// Config describes one fixed-rate open-loop run.
type Config struct {
	// Target is the broker base URL (http://host:port).
	Target string
	// Rate is the offered arrival rate in requests/second (default 100).
	Rate float64
	// Duration is how long arrivals are scheduled for (default 10s).
	Duration time.Duration
	// Seed derives the whole arrival schedule (times, ops, job picks);
	// the same seed replays the identical schedule (default 1).
	Seed int64
	// Mix is the traffic mix (default DefaultMix).
	Mix Mix
	// Jobs is the base job population created before the run and
	// targeted by job-scoped ops (default 4).
	Jobs int
	// Subscribers attaches this many live SSE event streams to every
	// base job for the whole run (default 0).
	Subscribers int
	// Sellers, K, Horizon shape the jobs (defaults 20, 5, 100M rounds
	// — effectively unbounded, so advances never exhaust a job
	// mid-run).
	Sellers int
	K       int
	Horizon int
	// AdvanceRounds is the rounds requested per advance call (default 25).
	AdvanceRounds int
	// OpTimeout bounds each individual request (default 30s).
	OpTimeout time.Duration
	// KeepJobs leaves the created jobs behind after the run (default:
	// the runner deletes everything it created).
	KeepJobs bool
	// ServerMetrics scrapes the broker's /metrics after the run and
	// joins its cdt_http_request_seconds histograms into the report,
	// so client-observed and server-side p50/p99 print side by side
	// (see servermetrics.go). A failed scrape degrades to a log line,
	// never a failed run.
	ServerMetrics bool
	// HTTPClient overrides the pooled transport (tests inject the
	// httptest client).
	HTTPClient *http.Client
	// Logf, when set, receives progress lines (cdt-loadgen wires it
	// to stderr).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	if c.Jobs <= 0 {
		c.Jobs = 4
	}
	if c.Sellers <= 0 {
		c.Sellers = 20
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Horizon <= 0 {
		c.Horizon = 100_000_000
	}
	if c.AdvanceRounds <= 0 {
		c.AdvanceRounds = 25
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 30 * time.Second
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// routeStats accumulates one op's outcomes; all fields are atomics so
// every in-flight request records wait-free.
type routeStats struct {
	count       atomic.Uint64
	ok          atomic.Uint64
	shed        atomic.Uint64 // 429
	unavailable atomic.Uint64 // 503
	errors5xx   atomic.Uint64 // 5xx except 503
	errors4xx   atomic.Uint64 // 4xx except 429
	transport   atomic.Uint64 // connection/transport failures
	skipped     atomic.Uint64 // op had nothing to act on (delete with no extras)

	lat *metrics.Histogram // latency in seconds of every issued request, any outcome
}

// clientBuckets is the client-side latency layout: 1 µs to 130 s at
// 7% resolution (277 bounds). It is finer than the broker's
// DefLatencyBuckets because a run keeps one histogram per op, not a
// windowed ring per route, so the resolution costs little.
var clientBuckets = metrics.GeometricBuckets(1e-6, 130, clientGrowth)

const clientGrowth = 1.07

// runner is one executing profile.
type runner struct {
	cfg   Config
	load  *client.Client // MaxAttempts=1: raw behavior, no hidden retries
	setup *client.Client // retried: population setup/teardown

	stats map[Op]*routeStats

	// population: base jobs are fixed for the whole run; extras are
	// created by OpCreate and consumed by OpDelete.
	popMu  sync.Mutex
	base   []string
	extras []string

	outstanding    atomic.Int64
	maxOutstanding atomic.Int64
	proxied        atomic.Uint64

	events           atomic.Uint64
	eventsReconnects atomic.Uint64

	// lagMax is the worst dispatcher lateness: how far behind its
	// scheduled arrival a request actually fired. Large lag means the
	// GENERATOR saturated, and the offered rate was not actually
	// offered — reports surface it so capacity numbers are honest.
	lagMax atomic.Int64
}

// Run executes one fixed-rate open-loop profile and reports the
// outcome. The context cancels the run early (the report covers what
// ran).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == "" {
		return nil, errors.New("loadgen: Config.Target is required")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	r := &runner{cfg: cfg, stats: make(map[Op]*routeStats, len(allOps))}
	for _, op := range allOps {
		r.stats[op] = &routeStats{lat: metrics.NewHistogram(clientBuckets)}
	}
	r.load = client.New(cfg.Target,
		client.WithHTTPClient(hc),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1}),
		client.WithResponseHook(func(resp *http.Response) {
			if resp.Header.Get("X-CDT-Proxied-By") != "" {
				r.proxied.Add(1)
			}
		}),
	)
	r.setup = client.New(cfg.Target, client.WithHTTPClient(hc))

	schedule := BuildSchedule(cfg.Seed, cfg.Rate, cfg.Duration, cfg.Mix, cfg.Jobs)
	cfg.logf("loadgen: %d arrivals over %s at %.1f req/s (mix %s, seed %d)",
		len(schedule), cfg.Duration, cfg.Rate, cfg.Mix, cfg.Seed)

	if err := r.createPopulation(ctx); err != nil {
		return nil, err
	}
	defer r.cleanup()

	subCtx, stopSubs := context.WithCancel(ctx)
	var subWG sync.WaitGroup
	r.startSubscribers(subCtx, &subWG)

	start := time.Now()
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
dispatch:
	for i := range schedule {
		a := schedule[i]
		wait := a.At - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break dispatch
		} else if lag := -wait; lag > time.Duration(r.lagMax.Load()) {
			// Fired late: open-loop still fires immediately (never
			// skips), but the lag is recorded.
			r.lagMax.Store(int64(lag))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := r.outstanding.Add(1)
			for {
				cur := r.maxOutstanding.Load()
				if out <= cur || r.maxOutstanding.CompareAndSwap(cur, out) {
					break
				}
			}
			r.fire(ctx, a)
			r.outstanding.Add(-1)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	stopSubs()
	subWG.Wait()

	rep := r.report(elapsed)
	if cfg.ServerMetrics {
		rows, err := scrapeServerRoutes(ctx, hc, cfg.Target)
		if err != nil {
			cfg.logf("loadgen: server-metrics scrape failed: %v", err)
		} else {
			rep.Server = r.attachServerRoutes(rows)
		}
	}
	return rep, nil
}

// createPopulation creates the base jobs through the retried setup
// client (a transiently saturated broker must not abort the run
// before it starts).
func (r *runner) createPopulation(ctx context.Context) error {
	r.base = make([]string, 0, r.cfg.Jobs)
	for i := 0; i < r.cfg.Jobs; i++ {
		st, err := r.setup.CreateJob(ctx, client.JobRequest{
			RandomSellers: r.cfg.Sellers,
			K:             r.cfg.K,
			Rounds:        r.cfg.Horizon,
			Seed:          r.cfg.Seed + int64(i),
		})
		if err != nil {
			return fmt.Errorf("loadgen: create base job %d/%d: %w", i+1, r.cfg.Jobs, err)
		}
		r.base = append(r.base, st.ID)
	}
	r.cfg.logf("loadgen: %d base jobs created (%d sellers, K=%d)", len(r.base), r.cfg.Sellers, r.cfg.K)
	return nil
}

// startSubscribers attaches cfg.Subscribers live event streams to
// every base job; each counts the rounds it sees until the run ends.
func (r *runner) startSubscribers(ctx context.Context, wg *sync.WaitGroup) {
	for _, id := range r.base {
		for s := 0; s < r.cfg.Subscribers; s++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				es, err := r.setup.Events(ctx, id, client.EventsOptions{Reconnect: true})
				if err != nil {
					return
				}
				defer es.Close()
				for {
					if _, err := es.Next(); err != nil {
						r.eventsReconnects.Add(uint64(es.Reconnects()))
						return
					}
					r.events.Add(1)
				}
			}(id)
		}
	}
}

// pickJob resolves an arrival's job slot to a live id: base slots
// directly, preferring extras for deletes.
func (r *runner) pickJob(slot int) string {
	r.popMu.Lock()
	defer r.popMu.Unlock()
	if len(r.base) == 0 {
		return ""
	}
	return r.base[slot%len(r.base)]
}

func (r *runner) pushExtra(id string) {
	r.popMu.Lock()
	r.extras = append(r.extras, id)
	r.popMu.Unlock()
}

func (r *runner) popExtra() (string, bool) {
	r.popMu.Lock()
	defer r.popMu.Unlock()
	if len(r.extras) == 0 {
		return "", false
	}
	id := r.extras[len(r.extras)-1]
	r.extras = r.extras[:len(r.extras)-1]
	return id, true
}

// fire issues one scheduled request and records its outcome.
func (r *runner) fire(ctx context.Context, a Arrival) {
	st := r.stats[a.Op]
	ctx, cancel := context.WithTimeout(ctx, r.cfg.OpTimeout)
	defer cancel()

	var err error
	t0 := time.Now()
	switch a.Op {
	case OpCreate:
		var js *client.JobStatus
		js, err = r.load.CreateJob(ctx, client.JobRequest{
			RandomSellers: r.cfg.Sellers,
			K:             r.cfg.K,
			Rounds:        r.cfg.Horizon,
			Seed:          r.cfg.Seed + int64(a.Job),
		})
		if err == nil {
			r.pushExtra(js.ID)
		}
	case OpAdvance:
		_, err = r.load.Advance(ctx, r.pickJob(a.Job), r.cfg.AdvanceRounds)
	case OpStatus:
		_, err = r.load.Job(ctx, r.pickJob(a.Job))
	case OpSnapshot:
		_, err = r.load.Snapshot(ctx, r.pickJob(a.Job))
	case OpEstimates:
		_, err = r.load.Estimates(ctx, r.pickJob(a.Job))
	case OpStats:
		_, err = r.load.Stats(ctx)
	case OpList:
		_, err = r.load.Jobs(ctx, client.ListJobsOptions{Limit: r.cfg.Jobs})
	case OpDelete:
		// Only churn jobs OpCreate made; the base population must
		// survive the whole run.
		id, ok := r.popExtra()
		if !ok {
			st.skipped.Add(1)
			return
		}
		if _, err = r.load.Delete(ctx, id); err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				err = nil // raced another delete; the job is gone either way
			}
		}
	case OpSolve:
		_, err = r.load.SolveGame(ctx, client.SolveGameRequest{
			Sellers: []client.SellerSpec{
				{CostQuadratic: 0.2, CostLinear: 0.1, ExpectedQuality: 0.9},
				{CostQuadratic: 0.3, CostLinear: 0.2, ExpectedQuality: 0.7},
			},
		})
	default:
		st.skipped.Add(1)
		return
	}
	st.lat.Observe(max(0, time.Since(t0).Seconds()))
	st.count.Add(1)
	r.classify(st, err)
}

// classify buckets one outcome.
func (r *runner) classify(st *routeStats, err error) {
	if err == nil {
		st.ok.Add(1)
		return
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		st.transport.Add(1)
		return
	}
	switch {
	case apiErr.Status == http.StatusTooManyRequests:
		st.shed.Add(1)
	case apiErr.Status == http.StatusServiceUnavailable:
		st.unavailable.Add(1)
	case apiErr.Status >= 500:
		st.errors5xx.Add(1)
	default:
		st.errors4xx.Add(1)
	}
}

// cleanup deletes every job the runner created (base + surviving
// extras) unless KeepJobs is set.
func (r *runner) cleanup() {
	if r.cfg.KeepJobs {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.popMu.Lock()
	ids := append(append([]string(nil), r.base...), r.extras...)
	r.base, r.extras = nil, nil
	r.popMu.Unlock()
	for _, id := range ids {
		if _, err := r.setup.Delete(ctx, id); err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				continue
			}
			r.cfg.logf("loadgen: cleanup %s: %v", id, err)
		}
	}
}
