// Package server implements the CDT broker as an HTTP/JSON service:
// consumers publish data collection jobs, advance them round by
// round, and read back strategies, profits, and learning state. It
// is the "platform as a service" face of the library — everything it
// does goes through the public cmabhs API, so the service guarantees
// exactly what the library guarantees.
//
// Endpoints, in route-table order (see routes.go):
//
//	GET    /v1/healthz             liveness probe (version, uptime, state store)
//	GET    /v1/jobs                list job summaries (?limit=, ?after= paging)
//	POST   /v1/jobs                create a job from a JobRequest (or resume one from a snapshot)
//	GET    /v1/jobs/{id}           one job's status + cumulative result
//	DELETE /v1/jobs/{id}           drop the job (and its stored snapshot)
//	POST   /v1/jobs/{id}/advance   play up to {"rounds": n} rounds
//	POST   /v1/jobs/{id}/snapshot  durably snapshot the job, return the snapshot
//	GET    /v1/jobs/{id}/estimates current quality estimates
//	GET    /v1/jobs/{id}/events    live round-event stream (SSE; NDJSON with ?format=ndjson)
//	GET    /v1/jobs/{id}/series    downsampled regret/revenue learning curve (see series.go)
//	POST   /v1/game/solve          stateless single-round game solve
//	GET    /v1/stats               service counters (JSON view of /metrics)
//	GET    /v1/cluster/overview    merged per-node health/lease/latency view (see overview.go)
//	GET    /metrics                Prometheus exposition
//
// Every response is JSON except /metrics and the event stream; every
// error carries the ErrorResponse envelope, including the 405 for a
// method a path does not serve and the 404 for a path no route matches.
//
// Advance calls honor the request context: if the client disconnects
// mid-advance, the job stops at the next round boundary, keeps the
// progress it made, and stays resumable. Concurrent advances across
// all jobs share a bounded worker pool (MaxConcurrentAdvances); when
// it saturates, further advances are shed with 429 + Retry-After
// rather than queued. Handler panics are isolated to a 500 (the
// process keeps serving), request bodies are bounded (413 past
// MaxBodyBytes), and RequestTimeout deadlines every request but the
// live event stream.
//
// With a Store configured, the broker is durable: SaveAll snapshots
// every live job (cdt-server calls it on graceful shutdown), LoadAll
// resumes them on start, and each job continues from its persisted
// round exactly as if the process had never restarted.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmabhs"
	"cmabhs/internal/core"
	"cmabhs/internal/engine"
	"cmabhs/internal/metrics"
	"cmabhs/internal/telemetry"
	"cmabhs/internal/tracing"
)

// JobRequest is the wire form of a market configuration.
type JobRequest struct {
	Sellers []SellerSpec `json:"sellers"`
	// RandomSellers, if positive and Sellers is empty, draws that
	// many sellers from the paper's parameter ranges using Seed.
	RandomSellers int `json:"random_sellers,omitempty"`

	K      int `json:"k"`
	PoIs   int `json:"pois,omitempty"`
	Rounds int `json:"rounds"`

	Theta  float64 `json:"theta,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
	Omega  float64 `json:"omega,omitempty"`

	PJMax float64 `json:"pj_max,omitempty"`
	PMax  float64 `json:"p_max,omitempty"`

	ObservationSD float64 `json:"observation_sd,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Policy        string  `json:"policy,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Solver        string  `json:"solver,omitempty"`
	Budget        float64 `json:"budget,omitempty"`
	CollectData   bool    `json:"collect_data,omitempty"`

	// Faults enables the fault-injection layer for this job.
	Faults *FaultRequest `json:"faults,omitempty"`

	// Snapshot, if set, creates the job by resuming a Session.Save
	// snapshot (e.g. one returned by POST /v1/jobs/{id}/snapshot)
	// instead of starting fresh; all other fields are ignored.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// SellerSpec is one seller on the wire.
type SellerSpec struct {
	CostQuadratic   float64 `json:"a"`
	CostLinear      float64 `json:"b"`
	ExpectedQuality float64 `json:"q"`
}

// maxMarket bounds a job's market size: its seller count M and its
// PoI count L. The broker allocates per seller, and a round collects
// one L-float row at a time into a single reused buffer, so a
// mechanism-only job holds O(M + L) however its K and rounds are set;
// bounding each dimension bounds it. 10 000 is over 30× the paper's
// M = 300 and 1000× its L = 10.
const maxMarket = 10_000

// maxCollectData bounds sellers × PoIs for a collect_data job. The
// raw-data layer keeps every reading of a round for aggregation (the
// median and trimmed mean need all of a PoI's readings), and round 1
// reads all M sellers, so that round holds M·L readings. 100 000 is
// over 30× the paper's 300 × 10.
const maxCollectData = 100_000

// checkMarket refuses a market larger than maxMarket, or a
// collect_data market past maxCollectData readings per round.
func checkMarket(sellers, pois int, collectData bool) error {
	if sellers > maxMarket || pois > maxMarket {
		return fmt.Errorf("market too large: %d sellers and %d pois, limit %d each", sellers, pois, maxMarket)
	}
	if collectData && sellers*pois > maxCollectData {
		return fmt.Errorf("market too large for collect_data: %d sellers × %d pois, limit %d", sellers, pois, maxCollectData)
	}
	return nil
}

// config converts the wire request to a library configuration.
func (r *JobRequest) config() (cmabhs.Config, error) {
	var cfg cmabhs.Config
	if err := checkMarket(max(len(r.Sellers), r.RandomSellers), r.PoIs, r.CollectData); err != nil {
		return cfg, err
	}
	switch {
	case len(r.Sellers) > 0:
		cfg = cmabhs.Config{}
		for _, s := range r.Sellers {
			cfg.Sellers = append(cfg.Sellers, cmabhs.Seller{
				CostQuadratic:   s.CostQuadratic,
				CostLinear:      s.CostLinear,
				ExpectedQuality: s.ExpectedQuality,
			})
		}
	case r.RandomSellers > 0:
		cfg = cmabhs.RandomConfig(r.RandomSellers, 0, 0, r.Seed)
	default:
		return cfg, errors.New("need sellers or random_sellers")
	}
	cfg.K = r.K
	cfg.PoIs = r.PoIs
	cfg.Rounds = r.Rounds
	cfg.Theta = r.Theta
	cfg.Lambda = r.Lambda
	cfg.Omega = r.Omega
	cfg.PJMax = r.PJMax
	cfg.PMax = r.PMax
	cfg.ObservationSD = r.ObservationSD
	cfg.Seed = r.Seed
	cfg.Policy = cmabhs.Policy(r.Policy)
	cfg.Epsilon = r.Epsilon
	cfg.Solver = cmabhs.Solver(r.Solver)
	cfg.Budget = r.Budget
	cfg.CollectData = r.CollectData
	if r.Faults != nil {
		cfg.Faults = &cmabhs.FaultConfig{
			Seed: r.Faults.Seed,
			Channel: cmabhs.ChannelFaults{
				GoodToBad: r.Faults.Channel.GoodToBad,
				BadToGood: r.Faults.Channel.BadToGood,
				LossGood:  r.Faults.Channel.LossGood,
				LossBad:   r.Faults.Channel.LossBad,
			},
			Churn: cmabhs.ChurnFaults{
				Rate:     r.Faults.Churn.Rate,
				MinRound: r.Faults.Churn.MinRound,
			},
			Straggler: cmabhs.StragglerFaults{
				Prob:      r.Faults.Straggler.Prob,
				MeanDelay: r.Faults.Straggler.MeanDelay,
				Deadline:  r.Faults.Straggler.Deadline,
			},
			Byzantine: cmabhs.ByzantineFaults{
				Fraction:  r.Faults.Byzantine.Fraction,
				Sellers:   append([]int(nil), r.Faults.Byzantine.Sellers...),
				Mode:      r.Faults.Byzantine.Mode,
				Inflation: r.Faults.Byzantine.Inflation,
			},
		}
	}
	return cfg, nil
}

// FaultRequest is the wire form of cmabhs.FaultConfig. Every model
// defaults to off; see the cmabhs package for semantics.
type FaultRequest struct {
	Seed    int64 `json:"seed,omitempty"`
	Channel struct {
		GoodToBad float64 `json:"good_to_bad,omitempty"`
		BadToGood float64 `json:"bad_to_good,omitempty"`
		LossGood  float64 `json:"loss_good,omitempty"`
		LossBad   float64 `json:"loss_bad,omitempty"`
	} `json:"channel,omitempty"`
	Churn struct {
		Rate     float64 `json:"rate,omitempty"`
		MinRound int     `json:"min_round,omitempty"`
	} `json:"churn,omitempty"`
	Straggler struct {
		Prob      float64 `json:"prob,omitempty"`
		MeanDelay float64 `json:"mean_delay,omitempty"`
		Deadline  float64 `json:"deadline,omitempty"`
	} `json:"straggler,omitempty"`
	Byzantine struct {
		Fraction  float64 `json:"fraction,omitempty"`
		Sellers   []int   `json:"sellers,omitempty"`
		Mode      string  `json:"mode,omitempty"`
		Inflation float64 `json:"inflation,omitempty"`
	} `json:"byzantine,omitempty"`
}

// JobStatus is the wire form of a job's state. Every endpoint that
// reports a job — create, get, list, and the advance envelope — emits
// this one shape.
//
// Result carries the library's cumulative result with one wire rule:
// 0 means "not measured" or "no finite bound". The library reports
// those as NaN or +Inf: AggregationRMSE without collect_data,
// DynamicRegret without quality drift (always, for a job created from
// a JobRequest), and RegretBound when the Theorem 19 bound is infinite
// (Δ_min = 0, e.g. K == M).
type JobStatus struct {
	ID        string         `json:"id"`
	Sellers   int            `json:"sellers"`
	K         int            `json:"k"`
	Rounds    int            `json:"rounds"`
	NextRound int            `json:"next_round"`
	Done      bool           `json:"done"`
	Stopped   string         `json:"stopped,omitempty"`
	Result    *cmabhs.Result `json:"result"`
	Metrics   JobMetrics     `json:"metrics"`
	Links     JobLinks       `json:"links"`
	// Lease reports which node owns the job and for how long; present
	// only on clustered brokers, so the single-node wire format is
	// unchanged.
	Lease *JobLeaseStatus `json:"lease,omitempty"`
}

// JobMetrics is the per-job throughput view embedded in JobStatus.
// Rates cover advance-call wall time only — a job nobody advances has
// zero elapsed time, not a decaying rate.
type JobMetrics struct {
	// RoundsAdvanced counts rounds played through the advance
	// endpoint (excludes rounds replayed from a resumed snapshot).
	RoundsAdvanced int64 `json:"rounds_advanced"`
	// RoundsPerSec is RoundsAdvanced divided by cumulative advance
	// wall time; 0 until the first advance completes.
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// LastAdvanceSeconds is the wall time of the most recent advance
	// call.
	LastAdvanceSeconds float64 `json:"last_advance_seconds"`
}

// JobLinks are the navigable relations of a job resource.
type JobLinks struct {
	Self     string `json:"self"`
	Snapshot string `json:"snapshot"`
	Metrics  string `json:"metrics"`
	// Owner is the owning node's direct URL for this job (clustered
	// brokers only): following it skips the proxy hop.
	Owner string `json:"owner,omitempty"`
}

// AdvanceRequest asks to play up to Rounds more rounds.
type AdvanceRequest struct {
	Rounds int `json:"rounds"`
}

// AdvanceResponse returns the rounds just played plus the updated
// status. Stopped is set when the advance ended early — "budget" when
// the trade budget ran out, "canceled" when the request context was
// cancelled mid-advance (the rounds already played are kept and the
// job stays resumable).
type AdvanceResponse struct {
	Played  []cmabhs.Round `json:"played"`
	Stopped string         `json:"stopped,omitempty"`
	Status  JobStatus      `json:"status"`
}

// job is one live trading session.
type job struct {
	mu      sync.Mutex
	id      string
	m       int
	k       int
	horizon int
	sess    *cmabhs.Session

	// lease is this node's ownership claim on a clustered broker (nil
	// single-node). Guarded by mu; the renewal loop refreshes it in
	// place and fencing reads it before every store write.
	lease *Lease

	// walLog, when the broker runs on a RoundWAL store, makes the
	// observer encode each played round straight into walBuf as WAL
	// entry lines (no per-round record copies — the borrowed event is
	// read in place); the advance handler flushes the buffer to the
	// store after AdvanceContext returns. All three fields are guarded
	// by mu (the observer runs on the advance goroutine, which holds
	// it). walErrs counts rounds whose encoding failed; they are
	// reported at flush time like append failures.
	walLog   bool
	walBuf   []byte
	walCount int
	walErrs  int

	// hub fans the job's round events out to /events subscribers. It
	// has its own lock — subscribe/unsubscribe never waits on mu, so
	// watching a job mid-advance is instant.
	hub *eventHub

	// wire caches the text of the status's per-seller vectors between
	// encodes (see sellerText). Guarded by mu: a status is rendered
	// and encoded under it.
	wire sellerText

	// series is the job's fixed-memory learning-curve recorder
	// (GET /v1/jobs/{id}/series). Like the hub it has its own leaf
	// lock: the observer appends under mu, series queries never take
	// mu at all.
	series *telemetry.Recorder

	// traceHook, when set, receives each round event for span
	// recording. Guarded by mu: the advance handler sets it before
	// AdvanceContext and clears it after, under the same lock the
	// advance itself holds.
	traceHook func(*cmabhs.RoundEvent)

	// Advance telemetry, guarded by mu like the session itself.
	roundsAdvanced int64
	advanceTotal   time.Duration
	lastAdvance    time.Duration
}

// recordAdvance folds one completed advance call into the job's
// telemetry. Caller holds mu.
func (j *job) recordAdvance(rounds int, took time.Duration) {
	j.roundsAdvanced += int64(rounds)
	j.advanceTotal += took
	j.lastAdvance = took
}

func (j *job) status() JobStatus {
	res := j.sess.Result() // built fresh per call: ours to edit
	res.AggregationRMSE = zeroUnlessFinite(res.AggregationRMSE)
	res.DynamicRegret = zeroUnlessFinite(res.DynamicRegret)
	res.RegretBound = zeroUnlessFinite(res.RegretBound)
	jm := JobMetrics{
		RoundsAdvanced:     j.roundsAdvanced,
		LastAdvanceSeconds: j.lastAdvance.Seconds(),
	}
	if j.advanceTotal > 0 {
		jm.RoundsPerSec = float64(j.roundsAdvanced) / j.advanceTotal.Seconds()
	}
	return JobStatus{
		ID:        j.id,
		Sellers:   j.m,
		K:         j.k,
		Rounds:    j.horizon,
		NextRound: j.sess.NextRound(),
		Done:      j.sess.Done(),
		Stopped:   j.sess.Stopped(),
		Result:    res,
		Metrics:   jm,
		Links: JobLinks{
			Self:     "/v1/jobs/" + j.id,
			Snapshot: "/v1/jobs/" + j.id + "/snapshot",
			Metrics:  "/metrics",
		},
	}
}

// zeroUnlessFinite maps NaN and ±Inf to 0, the wire's "not measured".
func zeroUnlessFinite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// statusLocked renders j's wire status plus the cluster decorations —
// the lease block and the owner link. Caller holds j.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := j.status()
	if s.clustered() && j.lease != nil {
		st.Lease = &JobLeaseStatus{
			Owner:            j.lease.Owner,
			Epoch:            j.lease.Epoch,
			ExpiresInSeconds: j.lease.Expiry().Sub(s.leaseStore().now()).Seconds(),
		}
		if p, ok := s.Cluster.peer(j.lease.Owner); ok {
			st.Links.Owner = p.URL + "/v1/jobs/" + j.id
		}
	}
	return st
}

// Server is the broker service. Create with New and mount Handler.
type Server struct {
	// reg is the sharded job table; see registry.go. Built lazily so
	// Shards can be set any time before the first request.
	regOnce sync.Once
	reg     *registry

	// Shards is the job-registry stripe count, rounded up to a power
	// of two (default 16). More shards mean less lock contention under
	// concurrent create/status/delete churn; per-shard occupancy is
	// exported as cdt_registry_shard_jobs. Set before serving.
	Shards int

	// CompactEvery, on a RoundWAL store, folds a job's WAL tail into a
	// fresh snapshot once the segment holds at least this many rounds
	// (default 4096). Smaller values bound replay work on restart;
	// larger values amortize snapshot writes further.
	CompactEvery int

	// MaxJobs bounds concurrently live jobs (default 64).
	MaxJobs int
	// MaxAdvance bounds rounds per advance call (default 100000).
	MaxAdvance int
	// SeriesCapacity bounds the per-job learning-curve ring served at
	// GET /v1/jobs/{id}/series (rounded up to a power of two; default
	// telemetry.DefaultCapacity). Longer runs are not truncated —
	// the recorder downsamples deterministically instead.
	SeriesCapacity int
	// MaxConcurrentAdvances bounds advance calls executing at once
	// across all jobs (default 16). When the pool is saturated
	// further advance calls are SHED — 429 plus a Retry-After header
	// — instead of queueing unboundedly.
	MaxConcurrentAdvances int
	// ShedRetryAfter is the Retry-After hint returned with a 429
	// (default 1s).
	ShedRetryAfter time.Duration
	// MaxBodyBytes bounds every request body; oversized bodies get a
	// 413 (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout, when positive, deadlines every request context.
	// Advance calls honor it at round boundaries and return their
	// partial progress. 0 disables the deadline.
	RequestTimeout time.Duration
	// StoreRetry tunes the retry/backoff applied to Store writes (the
	// snapshot endpoint and SaveAll). The zero value retries 3 times
	// with jittered exponential backoff from 50ms.
	StoreRetry engine.RetryPolicy

	// Store, if non-nil, makes the broker durable: the snapshot
	// endpoint persists through it, SaveAll/LoadAll write and reload
	// every live job, and DELETE removes the stored snapshot. Set it
	// before serving requests.
	Store Store

	// Cluster, if non-nil, runs this broker as one node of a
	// multi-node deployment sharing the Store (see cluster.go): every
	// job it serves is backed by a lease it renews, requests for jobs
	// a peer owns are transparently proxied to that peer, and a
	// crashed peer's jobs fail over to their hash-designated
	// successors. Requires a FileStore or WALStore as the Store (its
	// Now is the cluster's clock); set it (and validate with
	// ValidateCluster) before serving or loading.
	Cluster *Cluster

	// Registry, if non-nil, is the metrics registry the broker
	// instruments itself into (set it before serving to share one
	// registry across components); nil builds a private one. Either
	// way the registry is served at GET /metrics and reachable via
	// Metrics().
	Registry *metrics.Registry

	// Tracer, if non-nil, records request/round spans into its trace
	// store (set it before serving to share the store with the debug
	// listener); nil builds a private default-capacity one on first
	// request. Reachable via Tracing().
	Tracer *tracing.Tracer

	// Logger, if non-nil, receives the per-request access lines and
	// recovery diagnostics; nil falls back to slog.Default().
	Logger *slog.Logger

	// DebugAddr, if set, is reported in the healthz payload so
	// operators can find the debug listener (/debug/pprof,
	// /debug/traces) from the main port.
	DebugAddr string

	started time.Time

	poolOnce sync.Once
	advPool  *engine.Pool

	metricsOnce sync.Once
	metrics     *serverMetrics

	traceOnce sync.Once

	// takeoverMu serializes cluster takeovers so concurrent requests
	// for the same orphaned job race once, not once each.
	takeoverMu sync.Mutex
	// leasesHeld counts leases this node currently holds (exported as
	// cdt_leases_held and healthz jobs_owned).
	leasesHeld atomic.Int64
}

// New returns an empty broker.
func New() *Server {
	return &Server{
		MaxJobs:    64,
		MaxAdvance: 100_000,
		started:    time.Now(),
	}
}

// registry lazily builds the sharded job table so Shards can be set
// any time before the first request (same contract as pool).
func (s *Server) registry() *registry {
	s.regOnce.Do(func() {
		s.reg = newRegistry(s.Shards)
		s.reg.prefix = s.jobIDPrefix()
	})
	return s.reg
}

// wal returns the Store's round-WAL extension, or nil when the store
// is snapshot-only (or absent).
func (s *Server) wal() RoundWAL {
	if w, ok := s.Store.(RoundWAL); ok {
		return w
	}
	return nil
}

// compactEvery returns the effective WAL compaction threshold.
func (s *Server) compactEvery() int {
	if s.CompactEvery > 0 {
		return s.CompactEvery
	}
	return 4096
}

// newJob builds a job around a session and attaches the broker's
// round observer. The observer is strictly passive (the simulation's
// trajectory and snapshots are bit-identical with or without it) and
// nearly free when nothing listens: per round it checks a nil func
// and an atomic subscriber count, nothing more.
func (s *Server) newJob(id string, sess *cmabhs.Session) *job {
	cfg := sess.Config()
	j := &job{
		id:      id,
		m:       len(cfg.Sellers),
		k:       cfg.K,
		horizon: cfg.Rounds,
		sess:    sess,
		hub:     newEventHub(s.met().eventsDropped),
		series:  telemetry.NewRecorder(s.SeriesCapacity),
	}
	sess.Observe(j.observe)
	return j
}

// pool lazily builds the shared advance pool so MaxConcurrentAdvances
// can be set any time before the first advance request.
func (s *Server) pool() *engine.Pool {
	s.poolOnce.Do(func() {
		n := s.MaxConcurrentAdvances
		if n <= 0 {
			n = 16
		}
		s.advPool = engine.NewPool(n)
	})
	return s.advPool
}

// saveToStore writes one snapshot through the configured retry
// policy: transient store failures (a slow disk, a flaky network
// filesystem) back off and retry instead of failing the request.
// Every attempt is counted into the store-retry metrics and recorded
// as a span event, so a trace of a snapshot request shows exactly how
// many write attempts the store needed and what each one returned.
//
// lease, when non-nil, is the ownership claim the write runs under:
// the save goes through the store's FencedSave, and a fencing
// rejection (the lease was stolen) is permanent — retrying cannot
// bring the job back, so the loop stops immediately.
func (s *Server) saveToStore(ctx context.Context, id string, data []byte, lease *Lease) error {
	m := s.met()
	ctx, span := s.Tracing().StartSpan(ctx, "store.save")
	span.SetAttr("job_id", id)
	span.SetAttr("bytes", len(data))
	defer span.End()
	pol := s.StoreRetry
	inner := pol.OnAttempt
	pol.OnAttempt = func(attempt int, err error) {
		m.retryAttempts.Inc()
		evAttrs := map[string]any{"attempt": attempt}
		if err != nil {
			m.retryFailures.Inc()
			evAttrs["error"] = err.Error()
		}
		span.AddEvent("attempt", evAttrs)
		if inner != nil {
			inner(attempt, err)
		}
	}
	err := engine.Retry(ctx, pol, func(ctx context.Context) error {
		if lease != nil {
			if ls := s.leaseStore(); ls != nil {
				err := ls.FencedSave(id, data, lease.Owner, lease.Epoch)
				if errors.Is(err, ErrLeaseLost) {
					return engine.Permanent(err)
				}
				return err
			}
		}
		return s.Store.Save(id, data)
	})
	if err != nil {
		span.SetError(err)
	}
	return err
}

// walRecord views a borrowed public round as a journal record WITHOUT
// copying its slices. The view is valid only while the observer call
// that borrowed the round is running — exactly the window in which the
// WAL encoder reads it.
func walRecord(r *cmabhs.Round) core.RoundRecord {
	return core.RoundRecord{
		Round:         r.Round,
		Selected:      r.Selected,
		PJ:            r.ConsumerPrice,
		P:             r.PlatformPrice,
		Taus:          r.SensingTimes,
		TotalTau:      r.TotalTime,
		PoC:           r.ConsumerProfit,
		PoP:           r.PlatformProfit,
		SellerProfits: r.SellerProfits,
		NoTrade:       r.NoTrade,
		Realized:      r.Realized,
		AggRMSE:       r.AggregationRMSE,
	}
}

// bootstrapWAL makes a brand-new job durable on a RoundWAL store: its
// base snapshot is persisted and an empty WAL segment starting at the
// next round is opened. The job is not yet published, so no lock is
// needed; on error the job is simply not created.
func (s *Server) bootstrapWAL(ctx context.Context, j *job, wal RoundWAL) error {
	data, err := j.sess.Save()
	if err != nil {
		return err
	}
	if err := s.saveToStore(ctx, j.id, data, j.lease); err != nil {
		return err
	}
	if err := s.resetSegment(wal, j.id, j.sess.NextRound(), j.lease); err != nil {
		return err
	}
	j.walLog = true
	return nil
}

// resetSegment resets id's WAL segment; on a lease-owned job the reset
// is fenced, so a zombie's reset cannot truncate a successor's segment,
// and the fresh header carries the owner's epoch.
func (s *Server) resetSegment(wal RoundWAL, id string, base int, lease *Lease) error {
	if lease != nil {
		return wal.ResetWALFenced(id, base, lease.Owner, lease.Epoch)
	}
	return wal.ResetWAL(id, base)
}

// flushWAL appends the rounds buffered by the observer during one
// advance call to the job's WAL segment, then compacts — snapshot plus
// segment reset — once the segment holds CompactEvery rounds. Caller
// holds j.mu. WAL failures never fail the advance (the rounds are
// played and the job stays correct in memory); they are logged and
// counted in cdt_wal_append_errors_total, and recovery degrades to the
// last durable snapshot + intact WAL prefix.
//
// On a lease-owned job the flush is epoch-fenced: the lease is checked
// before the append, and a lost lease (stolen by a successor) makes
// flushWAL report leaseLost=true WITHOUT writing — the buffered rounds
// belong to a generation that no longer owns the job. The caller must
// then evict the job (evictLostJob) after releasing j.mu.
func (s *Server) flushWAL(ctx context.Context, j *job) (leaseLost bool) {
	wal := s.wal()
	if wal == nil {
		return false
	}
	buf, n, encErrs := j.walBuf, j.walCount, j.walErrs
	j.walBuf, j.walCount, j.walErrs = j.walBuf[:0], 0, 0
	if encErrs > 0 {
		s.met().walAppendErrors.Add(uint64(encErrs))
		s.logger().Error("wal encode", "job_id", j.id, "rounds", encErrs)
	}
	if err := s.fence(j); err != nil {
		s.logger().Warn("wal flush fenced", "job_id", j.id, "error", err)
		return true
	}
	if n == 0 {
		return false
	}
	size, err := wal.AppendWALEncoded(j.id, buf, n)
	if err != nil {
		s.met().walAppendErrors.Inc()
		s.logger().Error("wal append", "job_id", j.id, "rounds", n, "error", err)
		return false
	}
	s.met().walAppended.Add(uint64(n))
	if size < s.compactEvery() {
		return false
	}
	data, err := j.sess.Save()
	if err == nil {
		err = s.saveToStore(ctx, j.id, data, j.lease)
	}
	if err == nil {
		err = s.resetSegment(wal, j.id, j.sess.NextRound(), j.lease)
	}
	if errors.Is(err, ErrLeaseLost) {
		s.logger().Warn("wal compact fenced", "job_id", j.id, "error", err)
		return true
	}
	if err != nil {
		// The segment keeps growing and the next flush retries the
		// compaction — durability is never lost, only unfolded.
		s.met().walAppendErrors.Inc()
		s.logger().Error("wal compact", "job_id", j.id, "error", err)
		return false
	}
	s.met().walCompactions.Inc()
	return false
}

// WireVersion is the documented revision of the broker's JSON wire
// surface, reported in healthz. Revision 2 dropped the deprecated
// top-level "message" mirror from the error envelope and added
// ?limit=/?after= paging to GET /v1/jobs.
const WireVersion = 2

// Healthz is the wire form of the liveness probe.
type Healthz struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	WireVersion   int     `json:"wire_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// StateStore reports snapshot durability: "disabled" without a
	// configured Store, "ok" when the store lists cleanly, otherwise
	// the error text.
	StateStore string `json:"state_store"`
	// Jobs is the live job count.
	Jobs int `json:"jobs"`
	// DebugAddr, when the debug listener is up, is its bind address
	// (pprof, trace store).
	DebugAddr string `json:"debug_addr,omitempty"`
	// StoreKind names the durability backend: "disabled", "file"
	// (whole snapshots only), "wal" (snapshots + round WAL), or
	// "custom" for a caller-supplied Store.
	StoreKind string `json:"store_kind"`
	// Shards is the job-registry stripe count.
	Shards int `json:"shards"`
	// WAL carries the segment/compaction counters on a "wal" store.
	WAL *WALStats `json:"wal,omitempty"`
	// Cluster carries the node identity, topology, and lease counters
	// on a multi-node broker.
	Cluster *ClusterHealthz `json:"cluster,omitempty"`
}

// storeKind classifies the configured Store for healthz.
func (s *Server) storeKind() string {
	switch s.Store.(type) {
	case nil:
		return "disabled"
	case *WALStore:
		return "wal"
	case *FileStore:
		return "file"
	default:
		if s.wal() != nil {
			return "wal"
		}
		return "custom"
	}
}

// buildVersion returns the module build version baked in by the Go
// toolchain ("(devel)" for plain source builds).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Status:        "ok",
		Version:       buildVersion(),
		GoVersion:     runtime.Version(),
		WireVersion:   WireVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		StateStore:    "disabled",
		Jobs:          s.registry().len(),
		DebugAddr:     s.DebugAddr,
		StoreKind:     s.storeKind(),
		Shards:        s.registry().shardCount(),
	}
	if s.Store != nil {
		if _, err := s.Store.List(); err != nil {
			h.StateStore = err.Error()
		} else {
			h.StateStore = "ok"
		}
	}
	if wal := s.wal(); wal != nil {
		st := wal.WALStats()
		h.WAL = &st
	}
	if s.clustered() {
		ch := &ClusterHealthz{
			NodeID:    s.Cluster.NodeID,
			JobsOwned: int(s.leasesHeld.Load()),
			LeaseTTLS: s.Cluster.ttl().Seconds(),
		}
		for _, p := range s.Cluster.Peers {
			ch.Peers = append(ch.Peers, p.ID)
		}
		if ls := s.leaseStore(); ls != nil {
			st := ls.LeaseStats()
			ch.Leases = &st
		}
		h.Cluster = ch
	}
	writeJSON(w, http.StatusOK, h)
}

// StatsResponse is the wire form of the service counters — the JSON
// view of the same instruments GET /metrics exposes to Prometheus.
type StatsResponse struct {
	JobsLive        int64 `json:"jobs_live"`
	JobsCreated     int64 `json:"jobs_created"`
	RoundsAdvanced  int64 `json:"rounds_advanced"`
	GamesSolved     int64 `json:"games_solved"`
	AdvanceInflight int64 `json:"advance_inflight"`
}

// handleStats reports service counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.met()
	writeJSON(w, http.StatusOK, StatsResponse{
		JobsLive:        int64(s.registry().len()),
		JobsCreated:     int64(m.jobsCreated.Value()),
		RoundsAdvanced:  int64(m.roundsAdvanced.Value()),
		GamesSolved:     int64(m.gamesSolved.Value()),
		AdvanceInflight: int64(s.pool().InUse()),
	})
}

// handleCreateJob serves POST /v1/jobs: a fresh job from the request
// config, or a resumed one from an embedded snapshot.
func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	var sess *cmabhs.Session
	if len(req.Snapshot) > 0 {
		// Resume a saved session; its configuration travels inside
		// the snapshot.
		var err error
		sess, err = cmabhs.ResumeSession(req.Snapshot)
		if err == nil {
			c := sess.Config()
			err = checkMarket(len(c.Sellers), c.PoIs, c.CollectData)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		cfg, err := req.config()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.K <= 0 || req.Rounds <= 0 {
			httpError(w, http.StatusBadRequest, "k and rounds must be positive")
			return
		}
		sess, err = cmabhs.NewSession(cfg)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	reg := s.registry()
	j := s.newJob(reg.allocID(), sess)
	if s.clustered() {
		// A job is born owned: its lease is taken before anything
		// is persisted or published, so a peer scanning the shared
		// store never adopts a half-created job.
		lease, err := s.leaseStore().AcquireLease(j.id, s.Cluster.NodeID, s.Cluster.ttl())
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		j.lease = &lease
	}
	if wal := s.wal(); wal != nil {
		// Round-granular durability starts at birth: persist the
		// base snapshot and open the job's WAL segment before the
		// job is reachable, so a kill -9 one round after creation
		// already recovers the job.
		if err := s.bootstrapWAL(r.Context(), j, wal); err != nil {
			if j.lease != nil {
				_ = s.leaseStore().ReleaseLease(j.id, j.lease.Owner, j.lease.Epoch)
			}
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	if !reg.putIfBelow(j, s.MaxJobs) {
		if s.Store != nil {
			// Roll back the bootstrap snapshot + segment (and, in
			// cluster mode, the lease record alongside them).
			_ = s.Store.Delete(j.id)
		}
		httpError(w, http.StatusTooManyRequests, "job limit (%d) reached", s.MaxJobs)
		return
	}
	if j.lease != nil {
		s.leasesHeld.Add(1)
	}
	s.met().jobsCreated.Inc()
	// The job is published: appendJob takes its lock before reading
	// state, a concurrent advance may already be running.
	s.writeJob(w, http.StatusCreated, j)
}

// handleListJobs serves GET /v1/jobs with optional ?limit= / ?after=
// paging. The response is a JSON array sorted by id (lexicographic —
// the same order `after` compares in); a page is the ids strictly
// past `after`, capped at `limit`. Paging matters under load: only
// the ids are collected registry-wide (cheap, per-shard locks only),
// and just the jobs inside the requested window take their job lock
// for a status render — an unpaged listing of a big registry
// serializes against every in-flight advance, a paged one does not.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		limit = n
	}
	after := q.Get("after")

	ids := s.registry().ids()
	sort.Strings(ids)
	if after != "" {
		ids = ids[sort.SearchStrings(ids, after):]
		if len(ids) > 0 && ids[0] == after {
			ids = ids[1:]
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	body := getRespBuf()
	defer body.release()
	body.b = append(body.b, '[')
	for _, id := range ids {
		// A job may vanish between the id scan and here (concurrent
		// delete); the page simply skips it.
		j, ok := s.registry().get(id)
		if !ok {
			continue
		}
		if len(body.b) > 1 {
			body.b = append(body.b, ',')
		}
		var err error
		if body.b, err = s.appendJob(body.b, j); err != nil {
			httpError(w, http.StatusInternalServerError, "encode response: %v", err)
			return
		}
	}
	body.b = append(body.b, "]\n"...)
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request, j *job) {
	s.writeJob(w, http.StatusOK, j)
}

// writeJob writes j's status as the whole response body.
func (s *Server) writeJob(w http.ResponseWriter, code int, j *job) {
	body := getRespBuf()
	defer body.release()
	var err error
	body.b, err = s.appendJob(body.b, j)
	body.b = append(body.b, '\n')
	writeEncoded(w, code, body, err)
}

// appendJob appends j's wire status, rendered and encoded under j.mu,
// which guards the job's per-seller text cache.
func (s *Server) appendJob(b []byte, j *job) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := s.statusLocked(j)
	return appendStatus(b, &st, &j.wire)
}

func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request, j *job) {
	if removed := s.registry().remove(j.id); removed != nil && removed.leaseFor() != nil {
		s.leasesHeld.Add(-1)
	}
	if s.Store != nil {
		// Store.Delete also removes the job's lease record, so a
		// deleted job leaves no ownership to dispute.
		if err := s.Store.Delete(j.id); err != nil {
			httpError(w, http.StatusInternalServerError, "job dropped but snapshot not deleted: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: j.id})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, j *job) {
	var req AdvanceRequest
	if r.ContentLength != 0 {
		if !s.decodeJSON(w, r, &req) {
			return
		}
	}
	if req.Rounds <= 0 {
		req.Rounds = 1
	}
	if req.Rounds > s.MaxAdvance {
		req.Rounds = s.MaxAdvance
	}
	// Load shedding: a saturated advance pool rejects immediately
	// with a retry hint rather than queueing the request — bounded
	// latency for the requests that are admitted, explicit
	// backpressure for the ones that are not. The acquisition
	// attempt gets its own span so a trace shows whether a request
	// was admitted or shed, and against how much contention.
	_, poolSpan := s.Tracing().StartSpan(r.Context(), "pool.acquire")
	acquired := s.pool().TryAcquire()
	poolSpan.SetAttr("acquired", acquired)
	poolSpan.SetAttr("in_flight", s.pool().InUse())
	poolSpan.End()
	if !acquired {
		hint := s.ShedRetryAfter
		if hint <= 0 {
			hint = time.Second
		}
		s.met().recordShed()
		writeError(w, http.StatusTooManyRequests, "saturated", hint,
			"advance capacity saturated (%d in flight); retry after %s", s.pool().InUse(), retryAfter(hint)+"s")
		return
	}
	defer s.pool().Release()
	// The body is built while the rounds play: each borrowed round is
	// appended straight into the pooled buffer, so no round is copied
	// and the body is never re-encoded. The bytes are exactly
	// json.Marshal(AdvanceResponse{...}) plus a newline (wire.go).
	const head = `{"played":`
	body := getRespBuf()
	defer body.release()
	body.b = append(body.b, head...)
	var encErr error
	start := time.Now()
	j.mu.Lock()
	j.traceHook = s.roundSpanHook(r.Context(), j.id)
	played, stopped, err := j.sess.AdvanceEach(r.Context(), req.Rounds, func(rd *cmabhs.Round) {
		if encErr != nil {
			return
		}
		sep := byte(',')
		if len(body.b) == len(head) {
			sep = '['
		}
		body.b, encErr = appendRound(append(body.b, sep), rd)
	})
	j.traceHook = nil
	j.recordAdvance(played, time.Since(start))
	var leaseLost bool
	if j.walLog {
		// Flush the rounds the observer buffered to the WAL and
		// fold the tail into a snapshot once it is long enough.
		// Still under j.mu: the segment must see rounds in play
		// order, and a compaction snapshot must not interleave
		// with another advance.
		leaseLost = s.flushWAL(r.Context(), j)
	}
	if encErr == nil {
		// The status is encoded under mu, which guards its text cache.
		st := s.statusLocked(j)
		body.b, encErr = appendAdvanceTail(body.b, played, stopped, &st, &j.wire)
	}
	j.mu.Unlock()
	if leaseLost {
		// The lease was stolen mid-advance: the successor owns the
		// job now. Evict it here and tell the client to re-resolve
		// (a retry will be proxied to the new owner).
		s.evictLostJob(j, ErrLeaseLost)
		writeError(w, http.StatusServiceUnavailable, "lease_lost", s.inTransitionRetry(nil),
			"job %q moved to another node mid-advance; retry", j.id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.met().roundsAdvanced.Add(uint64(played))
	if encErr != nil {
		httpError(w, http.StatusInternalServerError, "encode response: %v", encErr)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, j *job) {
	j.mu.Lock()
	data, err := j.sess.Save()
	l := j.lease
	j.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	persisted := false
	if s.Store != nil {
		if err := s.saveToStore(r.Context(), j.id, data, l); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				s.evictLostJob(j, err)
				writeError(w, http.StatusServiceUnavailable, "lease_lost", s.inTransitionRetry(nil),
					"job %q moved to another node: %v", j.id, err)
				return
			}
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		persisted = true
	}
	body := getRespBuf()
	defer body.release()
	body.b = appendSnapshotResponse(body.b, j.id, persisted, data)
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleEstimates(w http.ResponseWriter, r *http.Request, j *job) {
	j.mu.Lock()
	est := j.sess.Estimates()
	j.mu.Unlock()
	body := getRespBuf()
	defer body.release()
	var err error
	body.b, err = appendEstimates(body.b, j.id, est)
	writeEncoded(w, http.StatusOK, body, err)
}

// SnapshotResponse returns a job's durable snapshot. The Snapshot
// payload round-trips through POST /v1/jobs {"snapshot": ...} to
// recreate the job — on this broker or another one.
type SnapshotResponse struct {
	ID        string          `json:"id"`
	Persisted bool            `json:"persisted"` // written to the state store
	Snapshot  json.RawMessage `json:"snapshot"`
}

// SaveAll snapshots every live job into the configured Store. It is
// what cdt-server runs on graceful shutdown; jobs keep serving while
// it runs (each is locked only while its own snapshot is taken). The
// first error is returned but the remaining jobs are still saved.
func (s *Server) SaveAll() error {
	if s.Store == nil {
		return errors.New("server: no state store configured")
	}
	snap := s.registry().snapshot()
	var firstErr error
	for _, j := range snap {
		j.mu.Lock()
		data, err := j.sess.Save()
		l := j.lease
		j.mu.Unlock()
		if err == nil {
			// Shutdown snapshots retry too: losing a job's state to
			// one transient write failure is the worst outcome a
			// durable broker can produce.
			err = s.saveToStore(context.Background(), j.id, data, l)
		}
		if errors.Is(err, ErrLeaseLost) {
			// The job moved while shutting down: its durability is the
			// successor's problem now, not a save failure.
			s.evictLostJob(j, err)
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: save %s: %w", j.id, err)
		}
	}
	return firstErr
}

// LoadAll resumes every job found in the configured Store. Call it
// before serving requests. Loaded jobs keep their original ids, and
// new job ids are allocated past the highest loaded one so a restart
// never reuses an id. A snapshot that fails to resume aborts the
// load with an error — a durable broker must not silently drop jobs.
//
// On a RoundWAL store, recovery is round-granular: after the snapshot
// is resumed, the WAL tail — every logged round past the snapshot,
// with a torn final line discarded — is replayed through the session.
// Replay is deterministic re-execution (the mechanism's streams are
// seeded), so each replayed round must reproduce its logged record
// bit-for-bit; any divergence aborts the load. The caught-up state is
// then folded into a fresh snapshot and the segment is reset, so
// restart loops never re-replay the same tail.
// On a clustered broker, LoadAll adopts only the jobs this node may
// claim — its HRW homes among the unowned, anything whose lease it
// already holds, and expired leases it is the designated successor for
// — acquiring each lease before the load. Jobs a live peer owns are
// left alone.
func (s *Server) LoadAll() error {
	if s.Store == nil {
		return errors.New("server: no state store configured")
	}
	ids, err := s.Store.List()
	if err != nil {
		return err
	}
	if s.clustered() {
		return s.loadAllClustered(ids)
	}
	reg := s.registry()
	for _, id := range ids {
		j, err := s.loadStoredJob(context.Background(), id, nil)
		if err != nil {
			return err
		}
		reg.put(j)
		s.observeLoadedID(id)
	}
	return nil
}

// loadAllClustered is boot-time adoption in a cluster: a per-job claim
// lost to a racing peer is skipped, not fatal — the peer winning the
// race is the system working.
func (s *Server) loadAllClustered(ids []string) error {
	ls := s.leaseStore()
	for _, id := range ids {
		l, err := ls.LoadLease(id)
		if err != nil {
			return err
		}
		if !s.claimable(id, l) {
			continue
		}
		lease, err := ls.AcquireLease(id, s.Cluster.NodeID, s.Cluster.ttl())
		if errors.Is(err, ErrLeaseHeld) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := s.adoptJob(context.Background(), id, lease); err != nil {
			return err
		}
	}
	return nil
}

// loadStoredJob resumes one stored job: snapshot load, WAL-tail replay
// with bit-for-bit verification, and (on a WAL store) folding the
// caught-up state into a fresh base snapshot. The job is returned
// unpublished. lease, when non-nil, is the ownership claim the load
// runs under: saves are fenced with it, the reset segment header
// carries its epoch, and a WAL segment stamped with a LATER epoch
// aborts the load — it belongs to a successor generation this claim
// cannot fold.
func (s *Server) loadStoredJob(ctx context.Context, id string, lease *Lease) (*job, error) {
	data, err := s.Store.Load(id)
	if err != nil {
		return nil, err
	}
	sess, err := cmabhs.ResumeSession(data)
	if err != nil {
		return nil, fmt.Errorf("server: resume %s: %w", id, err)
	}
	wal := s.wal()
	if wal != nil {
		replayed, err := s.replayWAL(wal, id, sess, lease)
		if err != nil {
			return nil, err
		}
		if replayed > 0 {
			s.met().walReplayed.Add(uint64(replayed))
			s.logger().Info("wal replay", "job_id", id, "rounds", replayed,
				"next_round", sess.NextRound())
		}
		// Fold the replayed tail into a fresh base snapshot and
		// restart the segment from the caught-up round.
		data, err := sess.Save()
		if err == nil {
			err = s.saveToStore(ctx, id, data, lease)
		}
		if err == nil {
			err = s.resetSegment(wal, id, sess.NextRound(), lease)
		}
		if err != nil {
			return nil, fmt.Errorf("server: recover %s: %w", id, err)
		}
	}
	j := s.newJob(id, sess)
	j.walLog = wal != nil
	return j, nil
}

// replayWAL advances a just-resumed session through its WAL tail and
// verifies every replayed round reproduces the logged record exactly.
// It returns the number of rounds replayed.
func (s *Server) replayWAL(wal RoundWAL, id string, sess *cmabhs.Session, lease *Lease) (int, error) {
	seg, err := wal.LoadWAL(id)
	if err != nil {
		return 0, fmt.Errorf("server: recover %s: %w", id, err)
	}
	if seg == nil {
		return 0, nil
	}
	if lease != nil && seg.Epoch > lease.Epoch {
		return 0, fmt.Errorf("server: recover %s: wal segment from epoch %d but lease is epoch %d",
			id, seg.Epoch, lease.Epoch)
	}
	// The segment may predate the snapshot (a crash between a
	// compaction's snapshot save and its segment reset): entries below
	// the snapshot's next round are already folded in and are skipped.
	next := sess.NextRound()
	tail := seg.Rounds[:0:0]
	for i := range seg.Rounds {
		if r := seg.Rounds[i].Round; r >= next {
			if want := next + len(tail); r != want {
				return 0, fmt.Errorf("server: recover %s: wal gap: round %d follows %d", id, r, want-1)
			}
			tail = append(tail, seg.Rounds[i])
		}
	}
	if len(tail) == 0 {
		return 0, nil
	}
	// Each replayed round is checked in place, borrowed, against its
	// logged record; the first divergence is reported once the replay
	// ends, after a short replay.
	var diverged error
	i := 0
	played, stopped, err := sess.AdvanceEach(context.Background(), len(tail), func(r *cmabhs.Round) {
		if diverged == nil {
			if err := sameRound(r, &tail[i]); err != nil {
				diverged = fmt.Errorf("server: recover %s: replay diverged at round %d: %w",
					id, tail[i].Round, err)
			}
		}
		i++
	})
	if err != nil {
		return 0, fmt.Errorf("server: recover %s: replay: %w", id, err)
	}
	if played != len(tail) {
		return 0, fmt.Errorf("server: recover %s: replayed %d of %d logged rounds (stopped: %q)",
			id, played, len(tail), stopped)
	}
	if diverged != nil {
		return 0, diverged
	}
	return len(tail), nil
}

// sameRound checks that a replayed round reproduces its WAL record
// bit-for-bit on every journaled money field. Replay re-executes the
// seeded mechanism, so equality here is exact float equality, not a
// tolerance.
func sameRound(got *cmabhs.Round, want *core.RoundRecord) error {
	if got.Round != want.Round {
		return fmt.Errorf("round index %d vs %d", got.Round, want.Round)
	}
	checks := []struct {
		name string
		x, y float64
	}{
		{"consumer price", got.ConsumerPrice, want.PJ},
		{"platform price", got.PlatformPrice, want.P},
		{"consumer profit", got.ConsumerProfit, want.PoC},
		{"platform profit", got.PlatformProfit, want.PoP},
		{"realized revenue", got.Realized, want.Realized},
	}
	for _, c := range checks {
		if c.x != c.y {
			return fmt.Errorf("%s %g vs logged %g", c.name, c.x, c.y)
		}
	}
	if got.NoTrade != want.NoTrade {
		return fmt.Errorf("no-trade %v vs logged %v", got.NoTrade, want.NoTrade)
	}
	if len(got.Selected) != len(want.Selected) {
		return fmt.Errorf("selection size %d vs logged %d", len(got.Selected), len(want.Selected))
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			return fmt.Errorf("selection[%d] %d vs logged %d", i, got.Selected[i], want.Selected[i])
		}
	}
	return nil
}

// SolveGameRequest is the wire form of a one-round game.
type SolveGameRequest struct {
	Sellers []SellerSpec `json:"sellers"` // q is the ESTIMATED quality here
	Theta   float64      `json:"theta,omitempty"`
	Lambda  float64      `json:"lambda,omitempty"`
	Omega   float64      `json:"omega,omitempty"`
	PJMax   float64      `json:"pj_max,omitempty"`
	PMax    float64      `json:"p_max,omitempty"`
	Solver  string       `json:"solver,omitempty"`
}

func (s *Server) handleSolveGame(w http.ResponseWriter, r *http.Request) {
	var req SolveGameRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	gc := cmabhs.GameConfig{
		Theta: req.Theta, Lambda: req.Lambda, Omega: req.Omega,
		PJMax: req.PJMax, PMax: req.PMax,
		Solver: cmabhs.Solver(req.Solver),
	}
	for _, sp := range req.Sellers {
		gc.Sellers = append(gc.Sellers, cmabhs.GameSeller{
			CostQuadratic: sp.CostQuadratic,
			CostLinear:    sp.CostLinear,
			Quality:       sp.ExpectedQuality,
		})
	}
	out, err := cmabhs.SolveGame(gc)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met().gamesSolved.Inc()
	writeJSON(w, http.StatusOK, SolveGameResponse{GameOutcome: out})
}

// SolveGameResponse is the wire form of a stateless solve. It embeds
// the library outcome, so the JSON stays the flat GameOutcome shape
// clients already decode.
type SolveGameResponse struct {
	*cmabhs.GameOutcome
}

// EstimatesResponse reports a job's current quality estimates, one
// per seller in seller order.
type EstimatesResponse struct {
	ID        string    `json:"id,omitempty"`
	Estimates []float64 `json:"estimates"`
}

// DeleteResponse acknowledges a job deletion.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// writeJSON encodes v before committing the status line, so an
// encoding failure becomes a 500 error envelope rather than a truncated
// 200. The bytes match json.Encoder's: the value plus a newline,
// encoded once into a pooled buffer. Every float reaching here is
// finite by construction (DESIGN §8): inputs are held to the economics
// envelope at entry, and JobStatus zeroes the result fields a job does
// not measure. Job statuses, advance, snapshot, series and estimates
// bodies do not come here: they are appended by wire.go's encoders,
// with the same bytes and the same 500 on a non-finite float.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body := getRespBuf()
	defer body.release()
	if err := body.enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	writeBody(w, code, body)
}

// writeEncoded writes body, which an appender built, as the response;
// when the appender failed to encode (a NaN or an infinity), it writes
// the 500 writeJSON writes instead.
func writeEncoded(w http.ResponseWriter, code int, body *respBuf, err error) {
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	writeBody(w, code, body)
}

// writeBody commits the status line and writes a finished JSON body.
func writeBody(w http.ResponseWriter, code int, body *respBuf) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body.b)
}

// maxPooledBody is the largest response buffer returned to the pool;
// the rare bigger body (a 100k-round advance) is left to the GC
// rather than pinned.
const maxPooledBody = 1 << 20

// respBufs pools response bodies across requests.
var respBufs = sync.Pool{New: func() any {
	b := new(respBuf)
	b.enc = json.NewEncoder(b)
	return b
}}

// respBuf is a pooled response body. The wire.go appenders append to
// b directly; enc, bound to the buffer, writes any other value as
// json.Marshal's bytes plus a newline.
type respBuf struct {
	b   []byte
	enc *json.Encoder
}

func getRespBuf() *respBuf {
	b := respBufs.Get().(*respBuf)
	b.b = b.b[:0]
	return b
}

// Write appends p to the body; it is enc's sink.
func (b *respBuf) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

func (b *respBuf) release() {
	if cap(b.b) <= maxPooledBody {
		respBufs.Put(b)
	}
}

// ErrorBody is the structured half of the error envelope: a stable
// machine-readable code, a human-readable message, and — on 429s and
// 503s — the retry hint mirrored from the Retry-After header.
type ErrorBody struct {
	Code        string  `json:"code"`
	Message     string  `json:"message"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// ErrorResponse is the error envelope every non-2xx response carries
// (wire revision 2, see WireVersion):
//
//	{"error": {"code": "...", "message": "...", "retry_after_s": n}}
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// writeError is the single choke point for error responses: every
// handler path goes through it (usually via httpError) so the envelope
// cannot drift between endpoints. A positive retry hint sets BOTH the
// Retry-After header and the envelope's retry_after_s — callers must
// not set the header themselves, or the two can drift.
func writeError(w http.ResponseWriter, status int, code string, after time.Duration, format string, args ...any) {
	body := ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}
	if after > 0 {
		body.RetryAfterS = after.Seconds()
		w.Header().Set("Retry-After", retryAfter(after))
	}
	writeJSON(w, status, ErrorResponse{Error: body})
}

// httpError writes the envelope with the default code for the status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeError(w, status, errorCode(status), 0, format, args...)
}

// errorCode maps an HTTP status to its default machine-readable code.
// Paths with a more specific cause pass their own to writeError (the
// shed path sends "saturated", not "too_many_requests").
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}
