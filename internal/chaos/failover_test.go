package chaos

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cmabhs/internal/server"
)

// failoverClock is the one fake clock every broker and store handle in
// a failover test shares, so lease expiry is driven by the test, not
// the wall.
type failoverClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *failoverClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *failoverClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// failoverTTL is deliberately long: the test's clock is frozen between
// explicit advances, so no renewal loop needs to run mid-leg.
const failoverTTL = time.Minute

// bootNode starts one cluster node over the shared state dir: its own
// WALStore handle, the static two-node topology, and the shared clock.
// LoadAll is the real boot path — a successor adopting a lapsed peer's
// jobs happens right here, exactly as a restarted production node
// would do it.
func bootNode(t *testing.T, dir, nodeID string, clk *failoverClock) (*server.Server, *server.WALStore) {
	t.Helper()
	ws, err := server.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws.Now = clk.Now
	s := server.New()
	s.Store = ws
	s.CompactEvery = 16
	s.Cluster = &server.Cluster{
		NodeID: nodeID,
		Peers: []server.Peer{
			{ID: "a", URL: "http://node-a.invalid"},
			{ID: "b", URL: "http://node-b.invalid"},
		},
		LeaseTTL: failoverTTL,
	}
	if err := s.ValidateCluster(); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadAll(); err != nil {
		t.Fatal(err)
	}
	return s, ws
}

// finalStatus fetches a job's final status and strips everything that
// legitimately differs between a single-node control run and a
// clustered run — the node-namespaced id, the id-bearing links, the
// lease block, and wall-clock metrics. What remains is the model
// result, which must be bit-identical.
func finalStatus(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"metrics", "id", "links", "lease"} {
		delete(st, k)
	}
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFailoverKillPointsBitIdentical is the multi-node chaos check:
// the owning node of a kitchen-sink-faults job is crashed (no SaveAll,
// no lease release, sometimes a torn WAL tail) at several points; each
// time, the surviving peer boots over the shared directory, steals the
// lease at a higher epoch, and resumes from snapshot + WAL tail. The
// final result after four ownership changes must be byte-identical to
// an uninterrupted single-node control run, and every resume must be
// exactly-once — never ahead of the rounds actually played, never back
// at job creation.
func TestFailoverKillPointsBitIdentical(t *testing.T) {
	ctrl := server.New()
	ctrlID := createJob(t, ctrl.Handler(), kitchenSinkJob)
	want := finalStatus(t, ctrl.Handler(), advanceTo(t, ctrl.Handler(), ctrlID, 60))

	clk := &failoverClock{t: time.Unix(1_700_000_000, 0)}
	dir := t.TempDir()
	s, ws := bootNode(t, dir, "a", clk)
	id := createJob(t, s.Handler(), kitchenSinkJob)
	if id != "job-a-1" {
		t.Fatalf("clustered job id %q", id)
	}

	// Kill schedule: (rounds before the crash, WAL tail bytes torn,
	// successor node). Owners alternate a→b→a→b→a; leg 3 lands right
	// after a compaction, leg 4 tears deep enough to eat whole records.
	schedule := []struct {
		rounds, tear int
		successor    string
	}{
		{12, 0, "b"},
		{9, 7, "a"},
		{17, 0, "b"},
		{8, 300, "a"},
	}

	played := 0
	var lastEpoch int64 = 1
	for i, k := range schedule {
		advanceN(t, s.Handler(), id, k.rounds)
		played += k.rounds

		// Crash: handles dropped, nothing saved, nothing released.
		ws.Close()
		if k.tear > 0 {
			path := filepath.Join(dir, id+".wal")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			hdr := bytes.IndexByte(data, '\n') + 1
			tear := k.tear
			if tail := len(data) - hdr; tear > tail {
				tear = tail
			}
			if tear > 0 {
				if err := os.Truncate(path, int64(len(data)-tear)); err != nil {
					t.Fatal(err)
				}
			}
		}

		// The lease must first lapse; only then may the successor steal.
		clk.Advance(failoverTTL + 2*time.Second)
		s, ws = bootNode(t, dir, k.successor, clk)

		st := jobStatus(t, s, id)
		if st.Lease == nil || st.Lease.Owner != k.successor || st.Lease.Epoch <= lastEpoch {
			t.Fatalf("kill %d: successor lease %+v (last epoch %d)", i, st.Lease, lastEpoch)
		}
		lastEpoch = st.Lease.Epoch
		if st.NextRound > played+1 {
			t.Fatalf("kill %d: resumed AHEAD of play: next_round %d > %d", i, st.NextRound, played+1)
		}
		if st.NextRound <= 1 {
			t.Fatalf("kill %d: resume fell back to job creation", i)
		}
		if k.tear == 0 && st.NextRound != played+1 {
			t.Fatalf("kill %d: clean crash lost rounds: next_round %d, want %d", i, st.NextRound, played+1)
		}
		// Re-play whatever a torn tail lost, so each leg starts level
		// with the control.
		if lost := played + 1 - st.NextRound; lost > 0 {
			advanceN(t, s.Handler(), id, lost)
		}
	}

	got := finalStatus(t, s.Handler(), advanceTo(t, s.Handler(), id, 60-played))
	if !bytes.Equal(want, got) {
		t.Fatalf("failover run diverged from control:\nclean    %s\nfailover %s", want, got)
	}
	ws.Close()
}

// advanceTo drives the job forward and hands the id back, so calls
// compose with finalStatus.
func advanceTo(t *testing.T, h http.Handler, id string, rounds int) string {
	t.Helper()
	advanceN(t, h, id, rounds)
	return id
}

// TestFailoverGracefulHandoff is the planned-maintenance half: the
// owner snapshots, releases its leases, and goes away cleanly; the
// peer adopts the job IMMEDIATELY — no TTL wait, no clock advance —
// and the run completes bit-identically.
func TestFailoverGracefulHandoff(t *testing.T) {
	ctrl := server.New()
	ctrlID := createJob(t, ctrl.Handler(), kitchenSinkJob)
	want := finalStatus(t, ctrl.Handler(), advanceTo(t, ctrl.Handler(), ctrlID, 60))

	clk := &failoverClock{t: time.Unix(1_700_000_000, 0)}
	dir := t.TempDir()
	s, ws := bootNode(t, dir, "a", clk)
	id := createJob(t, s.Handler(), kitchenSinkJob)
	advanceN(t, s.Handler(), id, 25)

	// Graceful shutdown, exactly the cdt-server sequence: snapshot,
	// then release, then close.
	if err := s.SaveAll(); err != nil {
		t.Fatal(err)
	}
	s.ReleaseOwnedLeases()
	ws.Close()

	// The peer picks the job up with the clock UNTOUCHED.
	s, ws = bootNode(t, dir, "b", clk)
	defer ws.Close()
	st := jobStatus(t, s, id)
	if st.Lease == nil || st.Lease.Owner != "b" {
		t.Fatalf("handoff lease: %+v", st.Lease)
	}
	if st.NextRound != 26 {
		t.Fatalf("handoff resumed at %d, want 26", st.NextRound)
	}
	got := finalStatus(t, s.Handler(), advanceTo(t, s.Handler(), id, 35))
	if !bytes.Equal(want, got) {
		t.Fatalf("handoff run diverged from control:\nclean   %s\nhandoff %s", want, got)
	}
}
