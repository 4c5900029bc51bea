package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// GET /v1/cluster/overview — the merged, cluster-wide operator view.
// The queried node answers for itself and fans out one hop to every
// peer (?scope=node suppresses the fan-out, so peers answer locally
// and the merge can never recurse), reusing the proxy plumbing's
// header discipline: the current traceparent and request id ride
// along, so a trace of an overview call shows the whole fan-out. A
// down peer degrades to a stub entry with the error in its status —
// the overview stays useful mid-failover, which is exactly when an
// operator wants it.
//
// On a single-node broker the endpoint still works and reports the
// one node, so dashboards need no mode switch.

// overviewFanoutTimeout caps how long the merge waits for a peer.
const overviewFanoutTimeout = 5 * time.Second

// WindowRates is one rolling window's traffic summary.
type WindowRates struct {
	Requests uint64  `json:"requests"`
	P50S     float64 `json:"p50_s"`
	P99S     float64 `json:"p99_s"`
	ShedRate float64 `json:"shed_rate"`
}

// WindowRollup pairs the node's 1-minute and 5-minute rollups (all
// routes pooled; per-route windows are on /metrics).
type WindowRollup struct {
	Win1m WindowRates `json:"1m"`
	Win5m WindowRates `json:"5m"`
}

// NodeOverview is one node's slice of the cluster overview.
type NodeOverview struct {
	NodeID        string  `json:"node_id"`
	URL           string  `json:"url,omitempty"`
	Status        string  `json:"status"`
	Version       string  `json:"version,omitempty"`
	GoVersion     string  `json:"go_version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// Jobs is the node's live (in-registry) job count; JobsOwned is
	// how many of them are backed by a lease this node holds — on a
	// healthy cluster the two match per node, and the JobsOwned sum
	// equals the cluster's total live jobs.
	Jobs           int          `json:"jobs"`
	JobsOwned      int          `json:"jobs_owned"`
	RoundsAdvanced uint64       `json:"rounds_advanced"`
	Window         WindowRollup `json:"window"`
}

// ClusterOverview is the wire form of GET /v1/cluster/overview.
type ClusterOverview struct {
	Nodes []NodeOverview `json:"nodes"`
	// Jobs and JobsOwned sum the reachable nodes' counts.
	Jobs        int `json:"jobs"`
	JobsOwned   int `json:"jobs_owned"`
	Unreachable int `json:"unreachable"`
	// Leases is the shared lease store's protocol counters (clustered
	// brokers only; every node reads the same store, so the merge
	// reports the coordinator's view once, not per node).
	Leases *LeaseStats `json:"leases,omitempty"`
}

// nodeOverview builds this node's own entry.
func (s *Server) nodeOverview() NodeOverview {
	id, url := "local", ""
	if s.clustered() {
		id = s.Cluster.NodeID
		if p, ok := s.Cluster.peer(id); ok {
			url = p.URL
		}
	}
	jobs := s.registry().len()
	owned := jobs // single-node: every live job is implicitly owned
	if s.clustered() {
		owned = int(s.leasesHeld.Load())
	}
	return NodeOverview{
		NodeID:         id,
		URL:            url,
		Status:         "ok",
		Version:        buildVersion(),
		GoVersion:      runtime.Version(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Jobs:           jobs,
		JobsOwned:      owned,
		RoundsAdvanced: s.met().roundsAdvanced.Value(),
		Window:         s.met().rollup(),
	}
}

func (s *Server) handleClusterOverview(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") == "node" {
		writeJSON(w, http.StatusOK, s.nodeOverview())
		return
	}

	nodes := []NodeOverview{s.nodeOverview()}
	if s.clustered() {
		ctx, cancel := context.WithTimeout(r.Context(), overviewFanoutTimeout)
		defer cancel()
		peers := make([]NodeOverview, len(s.Cluster.Peers))
		var wg sync.WaitGroup
		for i, p := range s.Cluster.Peers {
			if p.ID == s.Cluster.NodeID {
				continue
			}
			wg.Add(1)
			go func(i int, p Peer) {
				defer wg.Done()
				peers[i] = s.fetchNodeOverview(ctx, w.Header(), p)
			}(i, p)
		}
		wg.Wait()
		for _, n := range peers {
			if n.NodeID != "" {
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].NodeID < nodes[j].NodeID })

	ov := ClusterOverview{Nodes: nodes}
	for _, n := range nodes {
		if n.Status != "ok" {
			ov.Unreachable++
			continue
		}
		ov.Jobs += n.Jobs
		ov.JobsOwned += n.JobsOwned
	}
	if s.clustered() {
		st := s.leaseStore().LeaseStats()
		ov.Leases = &st
	}
	writeJSON(w, http.StatusOK, ov)
}

// fetchNodeOverview asks one peer for its ?scope=node entry. Errors
// degrade to a stub row carrying the failure, never a failed merge.
func (s *Server) fetchNodeOverview(ctx context.Context, respHeader http.Header, p Peer) NodeOverview {
	stub := NodeOverview{NodeID: p.ID, URL: p.URL}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/v1/cluster/overview?scope=node", nil)
	if err != nil {
		stub.Status = fmt.Sprintf("unreachable: %v", err)
		return stub
	}
	s.stampHop(req, respHeader)

	resp, err := s.proxyClient().Do(req)
	if err != nil {
		stub.Status = fmt.Sprintf("unreachable: %v", err)
		return stub
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		stub.Status = fmt.Sprintf("unreachable: status %d", resp.StatusCode)
		return stub
	}
	var n NodeOverview
	if err := json.Unmarshal(body, &n); err != nil {
		stub.Status = fmt.Sprintf("bad overview payload: %v", err)
		return stub
	}
	if n.NodeID == "" {
		n.NodeID = p.ID
	}
	if n.URL == "" {
		n.URL = p.URL
	}
	return n
}
