package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Multi-node operation. A Cluster names this node, the static peer
// list sharing the state directory, and the lease TTL. With it set
// (and a FileStore or WALStore as the Store), the broker becomes one
// node of a horizontally scaled service:
//
//   - every job it serves is backed by a lease it holds and renews;
//   - requests for jobs another node owns are transparently proxied
//     (proxy.go), with traceparent and X-Request-ID forwarded so the
//     cross-node trace stitches;
//   - jobs whose lease lapses fail over: the HRW-designated successor
//     steals the lease at a higher epoch and resumes from snapshot +
//     WAL tail through the same bit-for-bit replay verification a
//     single-node restart uses;
//   - every store write is epoch-fenced, so an owner that lost its
//     lease (a zombie) can observe its own demise but never corrupt
//     the successor's state.
//
// With Cluster nil the broker is byte-for-byte the single-node service
// it always was: no leases, no fencing, no proxying, unchanged ids and
// wire formats.
//
// There is one clock: every ownership decision (expiry, successor
// choice, the lease block's expires_in_s, a 503's Retry-After) reads
// the store's FileStore.Now, the same clock the lease records are
// written with, so the two can never disagree.
type Cluster struct {
	// NodeID is this node's name in the peer list (same charset as a
	// job id).
	NodeID string
	// Peers is the full static topology, including this node.
	Peers []Peer
	// LeaseTTL is how long an unrenewed lease lives (default 10s); the
	// lease loop renews every LeaseTTL/3. Failover latency after a
	// crash is LeaseTTL plus a grace of leaseGrace for clock skew.
	LeaseTTL time.Duration
	// Client issues proxied requests; nil uses a default client whose
	// per-request lifetime is the inbound request's context.
	Client *http.Client
}

func (c *Cluster) ttl() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 10 * time.Second
}

// peer returns the peer record for a node id.
func (c *Cluster) peer(id string) (Peer, bool) {
	for _, p := range c.Peers {
		if p.ID == id {
			return p, true
		}
	}
	return Peer{}, false
}

// clustered reports whether this broker runs in multi-node mode.
func (s *Server) clustered() bool { return s.Cluster != nil }

// leaseStore returns the FileStore that holds the leases (the Store
// itself, or the one a WALStore embeds), or nil when the Store cannot
// hold leases.
func (s *Server) leaseStore() *FileStore {
	switch st := s.Store.(type) {
	case *FileStore:
		return st
	case *WALStore:
		return st.FileStore
	}
	return nil
}

// ValidateCluster checks the Cluster configuration against the Store;
// cdt-server calls it at boot so misconfiguration fails fast.
func (s *Server) ValidateCluster() error {
	if !s.clustered() {
		return nil
	}
	c := s.Cluster
	if err := checkID(c.NodeID); err != nil {
		return fmt.Errorf("server: node id: %w", err)
	}
	if _, ok := c.peer(c.NodeID); !ok {
		return fmt.Errorf("server: node id %q not in peer list", c.NodeID)
	}
	if s.leaseStore() == nil {
		return errors.New("server: -peers needs a lease-capable store (-state-dir)")
	}
	return nil
}

// jobIDPrefix is the id namespace jobs minted by this node live in:
// "job-" single-node (unchanged), "job-<node>-" clustered, so two
// nodes sharing a store can never mint the same id.
func (s *Server) jobIDPrefix() string {
	if s.clustered() {
		return "job-" + s.Cluster.NodeID + "-"
	}
	return "job-"
}

// leaseFor reads a job's lease claim under its lock.
func (j *job) leaseFor() *Lease {
	j.mu.Lock()
	l := j.lease
	j.mu.Unlock()
	return l
}

// fence verifies the job's lease claim against the store — the read
// half of epoch fencing, used before WAL appends (the write half,
// FencedSave/ResetWALFenced, guards the writes). Caller holds j.mu.
// Single-node brokers pay one nil check.
func (s *Server) fence(j *job) error {
	if !s.clustered() || j.lease == nil {
		return nil
	}
	return s.leaseStore().CheckLease(j.id, j.lease.Owner, j.lease.Epoch)
}

// evictLostJob drops a job whose lease was stolen: it is removed from
// the registry without a save (the successor already owns the state)
// and its buffered WAL rounds are discarded. Caller must NOT hold
// j.mu.
func (s *Server) evictLostJob(j *job, cause error) {
	if s.registry().remove(j.id) != nil {
		s.met().leasesLost.Inc()
		s.leasesHeld.Add(-1)
		s.logger().Warn("lease lost, job evicted", "job_id", j.id, "error", cause)
	}
	j.mu.Lock()
	j.lease = nil
	j.walBuf, j.walCount, j.walErrs = nil, 0, 0
	j.walLog = false
	j.mu.Unlock()
}

// adoptJob loads one stored job under a just-acquired lease and
// publishes it: the takeover path of both boot-time adoption and
// crash failover. Caller must already hold the lease.
func (s *Server) adoptJob(ctx context.Context, id string, lease Lease) (*job, error) {
	j, err := s.loadStoredJob(ctx, id, &lease)
	if err != nil {
		return nil, err
	}
	j.lease = &lease
	// Failover must not drop jobs at the admission limit: a takeover
	// uses put, not putIfBelow — better briefly over MaxJobs than a
	// stranded job.
	s.registry().put(j)
	s.leasesHeld.Add(1)
	s.observeLoadedID(id)
	return j, nil
}

// takeover serializes failover acquisitions: it acquires id's lease
// (stealing an expired one at a higher epoch) and resumes the job from
// snapshot + WAL tail. Concurrent requests for the same job during a
// takeover block here and find it in the registry on re-check.
func (s *Server) takeover(ctx context.Context, id string) (*job, error) {
	s.takeoverMu.Lock()
	defer s.takeoverMu.Unlock()
	if j, ok := s.registry().get(id); ok {
		return j, nil
	}
	ls := s.leaseStore()
	lease, err := ls.AcquireLease(id, s.Cluster.NodeID, s.Cluster.ttl())
	if err != nil {
		return nil, err
	}
	j, err := s.adoptJob(ctx, id, lease)
	if err != nil {
		// Leave the lease in place: this node now owns a job it cannot
		// load (corrupt snapshot?); releasing would make every peer
		// take turns failing the same load.
		s.met().leaseTakeovers.Inc() // the steal happened even if the load failed
		return nil, err
	}
	s.met().leaseTakeovers.Inc()
	s.logger().Info("job takeover", "job_id", id, "epoch", lease.Epoch,
		"next_round", j.sess.NextRound())
	return j, nil
}

// claimable reports whether this node should try to own id right now,
// given the lease (nil when absent): it is the HRW home of an unowned
// job, the current holder, or the designated successor of an expired
// one.
func (s *Server) claimable(id string, l *Lease) bool {
	c := s.Cluster
	if l != nil && l.Owner == c.NodeID {
		return true
	}
	expired := l != nil && l.Expired(s.leaseStore().now(), leaseGrace)
	return claimantOf(c.Peers, id, l, expired).ID == c.NodeID &&
		(l == nil || expired)
}

// RenewOwnedLeases renews the lease of every job this node serves and
// evicts any whose lease was stolen. It returns the number of renewal
// failures; the lease loop calls it every LeaseTTL/3.
func (s *Server) RenewOwnedLeases() int {
	ls := s.leaseStore()
	if !s.clustered() || ls == nil {
		return 0
	}
	failures := 0
	for _, j := range s.registry().snapshot() {
		l := j.leaseFor()
		if l == nil {
			continue
		}
		renewed, err := ls.RenewLease(j.id, l.Owner, l.Epoch, s.Cluster.ttl())
		if err != nil {
			failures++
			s.met().leaseRenewFailures.Inc()
			if errors.Is(err, ErrLeaseLost) {
				s.evictLostJob(j, err)
			} else {
				s.logger().Error("lease renew", "job_id", j.id, "error", err)
			}
			continue
		}
		j.mu.Lock()
		if j.lease != nil {
			*j.lease = renewed
		}
		j.mu.Unlock()
	}
	return failures
}

// AdoptOrphans scans the store for jobs this node should own but does
// not — unowned jobs it is the HRW home of, expired leases it is the
// designated successor for — and takes them over. It returns the
// number adopted; the lease loop calls it so failover happens even
// when no request for the orphan arrives.
func (s *Server) AdoptOrphans(ctx context.Context) int {
	ls := s.leaseStore()
	if !s.clustered() || ls == nil {
		return 0
	}
	ids, err := ls.List()
	if err != nil {
		s.logger().Error("orphan scan", "error", err)
		return 0
	}
	adopted := 0
	for _, id := range ids {
		if _, ok := s.registry().get(id); ok {
			continue
		}
		l, err := ls.LoadLease(id)
		if err != nil || !s.claimable(id, l) {
			continue
		}
		if _, err := s.takeover(ctx, id); err != nil {
			if !errors.Is(err, ErrLeaseHeld) {
				s.logger().Error("orphan takeover", "job_id", id, "error", err)
			}
			continue
		}
		adopted++
	}
	return adopted
}

// ReleaseOwnedLeases releases every lease this node holds — the
// graceful-shutdown handoff that lets peers adopt the jobs immediately
// instead of waiting out the TTL. Call it AFTER SaveAll.
func (s *Server) ReleaseOwnedLeases() {
	ls := s.leaseStore()
	if !s.clustered() || ls == nil {
		return
	}
	for _, j := range s.registry().snapshot() {
		l := j.leaseFor()
		if l == nil {
			continue
		}
		if err := ls.ReleaseLease(j.id, l.Owner, l.Epoch); err != nil {
			s.logger().Error("lease release", "job_id", j.id, "error", err)
			continue
		}
		s.leasesHeld.Add(-1)
		j.mu.Lock()
		j.lease = nil
		j.mu.Unlock()
	}
}

// RunLeaseLoop drives the cluster's background duties — renewals,
// orphan adoption, lease GC — until ctx is done. cdt-server runs it on
// its own goroutine; tests call the individual steps directly.
func (s *Server) RunLeaseLoop(ctx context.Context) {
	if !s.clustered() {
		return
	}
	t := time.NewTicker(s.Cluster.ttl() / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.RenewOwnedLeases()
			s.AdoptOrphans(ctx)
			if ls := s.leaseStore(); ls != nil {
				if n, err := ls.SweepLeases(); err != nil {
					s.logger().Error("lease sweep", "error", err)
				} else if n > 0 {
					s.logger().Info("lease sweep", "removed", n)
				}
			}
		}
	}
}

// observeLoadedID advances the id allocator past a loaded id minted in
// this node's namespace, so a restart never re-mints it.
func (s *Server) observeLoadedID(id string) {
	if n, ok := strings.CutPrefix(id, s.jobIDPrefix()); ok {
		var v int64
		if _, err := fmt.Sscanf(n, "%d", &v); err == nil && fmt.Sprintf("%d", v) == n {
			s.registry().observeID(v)
		}
	}
}

// JobLeaseStatus is the wire view of a job's ownership, embedded in
// JobStatus on clustered brokers (absent single-node, keeping the
// wire format unchanged).
type JobLeaseStatus struct {
	Owner string `json:"owner"`
	Epoch int64  `json:"epoch"`
	// ExpiresInSeconds is the remaining lease lifetime at render time;
	// negative means lapsed (failover imminent).
	ExpiresInSeconds float64 `json:"expires_in_s"`
}

// ClusterHealthz is the healthz block a clustered broker adds.
type ClusterHealthz struct {
	NodeID    string      `json:"node_id"`
	Peers     []string    `json:"peers"`
	JobsOwned int         `json:"jobs_owned"`
	LeaseTTLS float64     `json:"lease_ttl_s"`
	Leases    *LeaseStats `json:"leases,omitempty"`
}
