package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cmabhs/internal/metrics"
)

// TestOverviewSingleNode checks the endpoint works without a cluster:
// one "local" row whose counts mirror the registry.
func TestOverviewSingleNode(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)
	if code, _ := advance(t, h, nil, st.ID, 10); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/overview", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("overview status %d", rec.Code)
	}
	var ov ClusterOverview
	if err := json.Unmarshal(rec.Body.Bytes(), &ov); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body)
	}
	if len(ov.Nodes) != 1 {
		t.Fatalf("nodes %d, want 1", len(ov.Nodes))
	}
	n := ov.Nodes[0]
	if n.NodeID != "local" || n.Status != "ok" {
		t.Fatalf("node row %+v", n)
	}
	if n.Jobs != 1 || n.JobsOwned != 1 || ov.Jobs != 1 || ov.JobsOwned != 1 {
		t.Fatalf("job counts node=%+v totals=%+v", n, ov)
	}
	if n.RoundsAdvanced != 10 {
		t.Fatalf("rounds_advanced %d, want 10", n.RoundsAdvanced)
	}
	if n.GoVersion != runtime.Version() || n.Version == "" {
		t.Fatalf("build fields %+v", n)
	}
	// The requests above landed inside the last minute.
	if n.Window.Win1m.Requests == 0 || n.Window.Win5m.Requests < n.Window.Win1m.Requests {
		t.Fatalf("window rollup %+v", n.Window)
	}
	if ov.Leases != nil || ov.Unreachable != 0 {
		t.Fatalf("single-node overview carries cluster fields: %+v", ov)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/overview", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST overview: %d, want 405", rec.Code)
	}
}

// TestOverviewTwoNodeMerge builds a real two-broker cluster, creates a
// job on one node, and checks the merge seen from the *other* node:
// both rows present, ownership consistent, lease stats attached.
func TestOverviewTwoNodeMerge(t *testing.T) {
	nodes := newTestCluster(t, t.TempDir(), newFakeClock(), "a", "b")
	var st JobStatus
	if resp := httpJSON(t, http.MethodPost, nodes["a"].ts.URL+"/v1/jobs", clusterJob, nil, &st); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	var ov ClusterOverview
	if resp := httpJSON(t, http.MethodGet, nodes["b"].ts.URL+"/v1/cluster/overview", "", nil, &ov); resp.StatusCode != http.StatusOK {
		t.Fatalf("overview: %d", resp.StatusCode)
	}
	if len(ov.Nodes) != 2 || ov.Nodes[0].NodeID != "a" || ov.Nodes[1].NodeID != "b" {
		t.Fatalf("merged nodes %+v, want sorted [a b]", ov.Nodes)
	}
	for _, n := range ov.Nodes {
		if n.Status != "ok" {
			t.Fatalf("node %s status %q", n.NodeID, n.Status)
		}
		if n.URL == "" {
			t.Fatalf("node %s missing URL", n.NodeID)
		}
	}
	// Node a created the job, holds its lease; node b owns nothing.
	if ov.Nodes[0].JobsOwned != 1 || ov.Nodes[1].JobsOwned != 0 {
		t.Fatalf("ownership a=%d b=%d, want 1/0", ov.Nodes[0].JobsOwned, ov.Nodes[1].JobsOwned)
	}
	if ov.JobsOwned != 1 || ov.Unreachable != 0 {
		t.Fatalf("totals %+v", ov)
	}
	// Lease protocol counters are per-store-handle; node b merely
	// attaches its own (possibly idle) view.
	if ov.Leases == nil {
		t.Fatal("clustered overview missing lease stats")
	}
	var ovA ClusterOverview
	if resp := httpJSON(t, http.MethodGet, nodes["a"].ts.URL+"/v1/cluster/overview", "", nil, &ovA); resp.StatusCode != http.StatusOK {
		t.Fatalf("overview via a: %d", resp.StatusCode)
	}
	if ovA.Leases == nil || ovA.Leases.Acquired == 0 {
		t.Fatalf("creator's lease stats %+v, want acquired > 0", ovA.Leases)
	}
	if ovA.JobsOwned != 1 || len(ovA.Nodes) != 2 {
		t.Fatalf("overview via a: %+v", ovA)
	}

	// ?scope=node answers locally with a bare row, no fan-out.
	var n NodeOverview
	if resp := httpJSON(t, http.MethodGet, nodes["a"].ts.URL+"/v1/cluster/overview?scope=node", "", nil, &n); resp.StatusCode != http.StatusOK {
		t.Fatalf("scope=node: %d", resp.StatusCode)
	}
	if n.NodeID != "a" || n.JobsOwned != 1 {
		t.Fatalf("scope=node row %+v", n)
	}
}

// TestOverviewDownPeerDegrades kills one node and checks the survivor
// still answers with a stub row instead of failing the merge.
func TestOverviewDownPeerDegrades(t *testing.T) {
	nodes := newTestCluster(t, t.TempDir(), newFakeClock(), "a", "b")
	nodes["b"].ts.Close()

	var ov ClusterOverview
	if resp := httpJSON(t, http.MethodGet, nodes["a"].ts.URL+"/v1/cluster/overview", "", nil, &ov); resp.StatusCode != http.StatusOK {
		t.Fatalf("overview: %d", resp.StatusCode)
	}
	if len(ov.Nodes) != 2 {
		t.Fatalf("nodes %d, want 2 (stub for the dead peer)", len(ov.Nodes))
	}
	if ov.Unreachable != 1 {
		t.Fatalf("unreachable %d, want 1", ov.Unreachable)
	}
	var stub *NodeOverview
	for i := range ov.Nodes {
		if ov.Nodes[i].NodeID == "b" {
			stub = &ov.Nodes[i]
		}
	}
	if stub == nil || stub.Status == "ok" || !strings.Contains(stub.Status, "unreachable") {
		t.Fatalf("dead-peer row %+v", stub)
	}
}

// TestTelemetryExposition checks the new scrape families land on
// /metrics: windowed route latency, build info, and tracing-store
// pressure gauges.
func TestTelemetryExposition(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)
	if code, _ := advance(t, h, nil, st.ID, 5); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	body := scrape(t, h)

	for _, want := range []string{
		`cdt_http_request_seconds_p50_1m{route="/v1/jobs/{id}/advance"}`,
		`cdt_http_request_seconds_p99_1m{route="/v1/jobs/{id}/advance"}`,
		`cdt_http_request_seconds_p50_5m{route="/v1/jobs"}`,
		`cdt_http_requests_1m{route="/v1/jobs/{id}/advance"} 1`,
		"cdt_http_shed_1m 0",
		"cdt_http_shed_rate_1m 0",
		"cdt_http_shed_rate_5m 0",
		`cdt_build_info{go_version="` + goVersionLabel() + `"`,
		`wire_version="2"} 1`,
		"cdt_trace_evicted_traces 0",
		"cdt_trace_dropped_spans 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func goVersionLabel() string { return runtime.Version() }

// TestHealthzGoVersion pins the additive healthz field.
func TestHealthzGoVersion(t *testing.T) {
	s := New()
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var hz Healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body)
	}
	if hz.GoVersion != runtime.Version() {
		t.Fatalf("go_version %q, want %q", hz.GoVersion, runtime.Version())
	}
}

// TestOverviewRollupIsRouteMerge pins the overview's window rollup as
// the merge of the per-route windows: requests, p50 and p99 equal the
// merged route windows, and that merge counts every request served,
// 405s and 404s included, exactly once.
func TestOverviewRollupIsRouteMerge(t *testing.T) {
	s := New()
	h := s.Handler()
	st := createJob(t, h)
	sent := 1
	for i := 0; i < 3; i++ {
		if code, _ := advance(t, h, nil, st.ID, 2); code != http.StatusOK {
			t.Fatalf("advance: %d", code)
		}
		sent++
	}
	for _, rq := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, "/v1/jobs/" + st.ID, http.StatusOK},
		{http.MethodGet, "/v1/healthz", http.StatusOK},
		{http.MethodGet, "/v1/stats", http.StatusOK},
		{http.MethodDelete, "/v1/stats", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/nope", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, nil))
		if rec.Code != rq.code {
			t.Fatalf("%s %s: %d, want %d", rq.method, rq.path, rec.Code, rq.code)
		}
		sent++
	}
	m := s.met()
	if n := m.routes["other"].win[0].Count(); n != 1 {
		t.Fatalf("other route window count %d, want the one 404", n)
	}
	if n := m.routes["/v1/stats"].win[0].Count(); n != 2 {
		t.Fatalf("/v1/stats window count %d, want the GET and the 405", n)
	}
	var want [2]metrics.HistogramSnapshot
	for _, rm := range m.routes {
		for i := range want {
			want[i].Add(rm.win[i].Snapshot())
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/overview", nil))
	var ov ClusterOverview
	if err := json.Unmarshal(rec.Body.Bytes(), &ov); err != nil {
		t.Fatalf("overview: %v\n%s", err, rec.Body)
	}
	for i, got := range []WindowRates{ov.Nodes[0].Window.Win1m, ov.Nodes[0].Window.Win5m} {
		if got.Requests != uint64(sent) || got.Requests != want[i].Count {
			t.Errorf("window %d requests %d, want %d sent and %d merged", i, got.Requests, sent, want[i].Count)
		}
		if got.P50S != want[i].Quantile(0.5) || got.P99S != want[i].Quantile(0.99) {
			t.Errorf("window %d p50/p99 %v/%v, want merged %v/%v",
				i, got.P50S, got.P99S, want[i].Quantile(0.5), want[i].Quantile(0.99))
		}
		if got.ShedRate != 0 {
			t.Errorf("window %d shed_rate %v, want 0", i, got.ShedRate)
		}
	}
}
