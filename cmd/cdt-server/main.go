// Command cdt-server runs the CDT broker as an HTTP/JSON service.
//
//	cdt-server -addr :8080 [-state-dir /var/lib/cdt [-wal] [-compact-every n]]
//	           [-node-id a -peers a=http://...,b=http://... [-lease-ttl 10s]]
//	           [-shards n] [-debug-addr :6060]
//	           [-log-format text|json] [-log-level debug|info|warn|error]
//
// With -state-dir set, jobs are snapshotted to disk on graceful
// shutdown (SIGINT/SIGTERM) and on POST /v1/jobs/{id}/snapshot, and
// reloaded at the persisted round on the next start. Adding -wal
// additionally keeps a per-job write-ahead round log: every advance
// appends the rounds it played, the tail is folded into a fresh
// snapshot every -compact-every rounds, and recovery after a crash
// (kill -9 included) replays the WAL tail on top of the last snapshot
// — round-granular durability instead of last-explicit-snapshot.
//
// With -peers and -node-id set (requires -state-dir; the directory
// must be shared by every listed node), the broker runs as one node
// of a multi-node cluster: each job is owned by exactly one node via
// a lease it renews every -lease-ttl/3, requests landing on a
// non-owner are transparently proxied to the owner (traces stitch
// across the hop), graceful shutdown releases leases so peers adopt
// the jobs immediately, and a crashed node's jobs fail over to their
// hash-designated successors after the lease expires. See DESIGN.md
// §15 and the README multi-node runbook.
//
// Prometheus metrics are served at GET /metrics on the main address.
// With -debug-addr set, a second listener additionally serves
// net/http/pprof profiles, the in-memory trace store (GET
// /debug/traces, /debug/traces/{id}), and /metrics again on a
// separate port that can stay firewalled off from the public API.
//
// All diagnostics are structured log lines (log/slog); every request
// produces one access line carrying trace_id, request_id, route,
// method, code, and duration. -log-format json emits one JSON object
// per line for log shippers.
//
// Example session:
//
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"random_sellers":300,"k":10,"rounds":100000,"seed":1}'
//	curl -s -X POST localhost:8080/v1/jobs/job-1/advance -d '{"rounds":1000}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s -N localhost:8080/v1/jobs/job-1/events        # live SSE round stream
//	curl -s -X POST localhost:8080/v1/game/solve \
//	     -d '{"sellers":[{"a":0.2,"b":0.1,"q":0.9},{"a":0.3,"b":0.2,"q":0.7}]}'
//	curl -s localhost:8080/metrics | grep cdt_http_requests_total
//	curl -s localhost:6060/debug/traces | jq '.traces[0]'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cmabhs/internal/metrics"
	"cmabhs/internal/server"
	"cmabhs/internal/telemetry"
	"cmabhs/internal/tracing"
)

// debugHandler builds the -debug-addr mux: pprof profiles, the trace
// store, and the same metrics registry the main listener serves.
func debugHandler(reg *metrics.Registry, traces http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", traces)
	mux.Handle("/debug/traces/", traces)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		_ = reg.WritePrometheus(w)
	})
	return mux
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxJobs     = flag.Int("max-jobs", 64, "maximum concurrently live jobs")
		maxAdvance  = flag.Int("max-advance", 100_000, "maximum rounds per advance call")
		seriesPts   = flag.Int("series-points", telemetry.DefaultCapacity, "per-job learning-curve points retained for /v1/jobs/{id}/series (rounded up to a power of two; longer runs are downsampled, not truncated)")
		maxInflight = flag.Int("max-concurrent-advances", 16, "maximum advance calls executing at once")
		shards      = flag.Int("shards", 16, "job-registry lock stripes (rounded up to a power of two)")
		stateDir    = flag.String("state-dir", "", "directory for durable job snapshots (empty: in-memory only)")
		useWAL      = flag.Bool("wal", false, "with -state-dir: keep a per-job write-ahead round log next to the snapshots, making crash recovery round-granular")
		compactEvry = flag.Int("compact-every", 4096, "with -wal: fold a job's WAL tail into a fresh snapshot once it holds this many rounds")
		reqTimeout  = flag.Duration("request-timeout", 2*time.Minute, "per-request deadline; advances return partial progress at expiry (0: none)")
		maxBody     = flag.Int64("max-body-bytes", 1<<20, "maximum request body size in bytes (413 past this)")
		shedAfter   = flag.Duration("shed-retry-after", time.Second, "Retry-After hint sent with 429 when the advance pool is saturated")
		nodeID      = flag.String("node-id", "", "with -peers: this node's id in the peer list")
		peersFlag   = flag.String("peers", "", "static cluster topology as comma-separated id=url pairs sharing -state-dir (empty: single-node)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "with -peers: job lease lifetime; crash failover begins once a lease is this stale")
		debugAddr   = flag.String("debug-addr", "", "optional second listen address serving net/http/pprof, /debug/traces, and /metrics (empty: disabled)")
		traceCap    = flag.Int("trace-capacity", tracing.DefaultCapacity, "traces retained in the in-memory ring buffer")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()

	lg, err := tracing.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(lg)

	srv := server.New()
	srv.MaxJobs = *maxJobs
	srv.MaxAdvance = *maxAdvance
	srv.SeriesCapacity = *seriesPts
	srv.MaxConcurrentAdvances = *maxInflight
	srv.Shards = *shards
	srv.CompactEvery = *compactEvry
	srv.RequestTimeout = *reqTimeout
	srv.MaxBodyBytes = *maxBody
	srv.ShedRetryAfter = *shedAfter
	srv.Logger = lg
	srv.Tracer = tracing.New(*traceCap)
	if *peersFlag != "" {
		peers, err := server.ParsePeers(*peersFlag)
		if err != nil {
			lg.Error("parse -peers", "error", err)
			os.Exit(2)
		}
		srv.Cluster = &server.Cluster{
			NodeID:   *nodeID,
			Peers:    peers,
			LeaseTTL: *leaseTTL,
		}
	}
	if *stateDir != "" {
		var store server.Store
		var err error
		if *useWAL {
			store, err = server.NewWALStore(*stateDir)
		} else {
			store, err = server.NewFileStore(*stateDir)
		}
		if err != nil {
			lg.Error("open state dir", "error", err)
			os.Exit(1)
		}
		srv.Store = store
		if err := srv.ValidateCluster(); err != nil {
			lg.Error("cluster config", "error", err)
			os.Exit(2)
		}
		if err := srv.LoadAll(); err != nil {
			lg.Error("reload jobs", "state_dir", *stateDir, "error", err)
			os.Exit(1)
		}
		if ids, err := store.List(); err == nil && len(ids) > 0 {
			lg.Info("reloaded jobs", "state_dir", *stateDir, "count", len(ids), "ids", fmt.Sprint(ids))
		}
	} else if srv.Cluster != nil {
		lg.Error("cluster config", "error", fmt.Errorf("-peers requires -state-dir (the shared store)"))
		os.Exit(2)
	}

	if *debugAddr != "" {
		srv.DebugAddr = *debugAddr
		ds := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugHandler(srv.Metrics(), tracing.Handler(srv.Tracing().Store())),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			lg.Info("debug listener up (pprof, traces, metrics)", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != http.ErrServerClosed {
				lg.Error("debug listener", "error", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if srv.Cluster != nil {
		// Background cluster duties: lease renewals, orphan adoption
		// (crash failover without waiting for a request), lease GC.
		go srv.RunLeaseLoop(ctx)
		lg.Info("cluster mode", "node_id", srv.Cluster.NodeID,
			"peers", *peersFlag, "lease_ttl", leaseTTL.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		lg.Info("draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			lg.Error("shutdown", "error", err)
		}
	}()
	lg.Info("listening", "addr", *addr)
	if err := hs.ListenAndServe(); err != http.ErrServerClosed {
		lg.Error("serve", "error", err)
		os.Exit(1)
	}
	// ListenAndServe returns as soon as Shutdown closes the listener;
	// in-flight requests (e.g. a long advance) are still draining.
	<-drained
	if srv.Store != nil {
		// Snapshot after the drain so in-flight advances are included.
		if err := srv.SaveAll(); err != nil {
			lg.Error("snapshot jobs", "error", err)
		} else {
			lg.Info("snapshotted jobs", "state_dir", *stateDir)
		}
		// Release leases AFTER the snapshots are durable: peers adopt
		// the jobs immediately (no TTL wait) and resume from the state
		// just saved.
		srv.ReleaseOwnedLeases()
		if ws, ok := srv.Store.(*server.WALStore); ok {
			_ = ws.Close() // appends are already fsynced; just release handles
		}
	}
	lg.Info("stopped")
}
