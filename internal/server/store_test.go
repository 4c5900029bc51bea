package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"cmabhs/internal/core"
)

func TestFileStoreBasics(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := fs.List(); err != nil || len(ids) != 0 {
		t.Fatalf("fresh store: ids %v err %v", ids, err)
	}
	if err := fs.Save("job-1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job-1", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err) // overwrite must be fine
	}
	if err := fs.Save("job-10", []byte(`{"b":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Load("job-1")
	if err != nil || !bytes.Equal(got, []byte(`{"a":2}`)) {
		t.Fatalf("load: %q err %v", got, err)
	}
	ids, err := fs.List()
	if err != nil || !reflect.DeepEqual(ids, []string{"job-1", "job-10"}) {
		t.Fatalf("list: %v err %v", ids, err)
	}
	if err := fs.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("job-1"); err != nil {
		t.Fatalf("deleting a missing id: %v", err)
	}
	if _, err := fs.Load("job-1"); err == nil {
		t.Fatal("load after delete succeeded")
	}
	// No temp litter after saves.
	assertNoTemps(t, fs.Dir())
}

func TestFileStoreRejectsBadIDs(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", "a.b", "x y"} {
		if err := fs.Save(id, []byte("{}")); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func persistentTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	srv.Store = fs
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

var persistJobReq = JobRequest{RandomSellers: 12, K: 3, Rounds: 40, Seed: 21, Policy: "thompson"}

// TestBrokerRestartMidJob is the acceptance path of broker
// durability: advance a job partway, snapshot, kill the broker, start
// a new broker on the same state dir, and the reloaded job continues
// from the persisted round to a result identical to a never-restarted
// run.
func TestBrokerRestartMidJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")

	// The reference: one broker, no restart.
	_, refTS := persistentTestServer(t, filepath.Join(t.TempDir(), "ref-state"))
	var refSt JobStatus
	if code := do(t, refTS, http.MethodPost, "/v1/jobs", persistJobReq, &refSt); code != http.StatusCreated {
		t.Fatalf("ref create: %d", code)
	}
	var refAdv AdvanceResponse
	if code := do(t, refTS, http.MethodPost, "/v1/jobs/"+refSt.ID+"/advance", AdvanceRequest{Rounds: 40}, &refAdv); code != http.StatusOK {
		t.Fatalf("ref advance: %d", code)
	}
	if !refAdv.Status.Done {
		t.Fatal("reference job not done")
	}

	// Broker #1: create, advance 15 rounds, snapshot, shut down.
	srv1, ts1 := persistentTestServer(t, dir)
	var st JobStatus
	if code := do(t, ts1, http.MethodPost, "/v1/jobs", persistJobReq, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var adv AdvanceResponse
	if code := do(t, ts1, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 15}, &adv); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	var snap SnapshotResponse
	if code := do(t, ts1, http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	if !snap.Persisted || snap.ID != st.ID || len(snap.Snapshot) == 0 {
		t.Fatalf("snapshot response %+v", snap)
	}
	// Graceful-shutdown path: SaveAll persists the latest state.
	if err := srv1.SaveAll(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Broker #2 on the same state dir: the job is back, mid-run.
	srv2, ts2 := persistentTestServer(t, dir)
	if err := srv2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	var reloaded JobStatus
	if code := do(t, ts2, http.MethodGet, "/v1/jobs/"+st.ID, nil, &reloaded); code != http.StatusOK {
		t.Fatalf("reloaded job missing: %d", code)
	}
	if reloaded.NextRound != 16 {
		t.Fatalf("reloaded job at round %d, want 16", reloaded.NextRound)
	}
	if reloaded.Sellers != 12 || reloaded.K != 3 || reloaded.Rounds != 40 {
		t.Fatalf("reloaded job lost its shape: %+v", reloaded)
	}
	// A fresh job on broker #2 must not collide with the loaded id.
	var fresh JobStatus
	if code := do(t, ts2, http.MethodPost, "/v1/jobs", persistJobReq, &fresh); code != http.StatusCreated {
		t.Fatalf("fresh create: %d", code)
	}
	if fresh.ID == st.ID {
		t.Fatalf("id %s reused after restart", fresh.ID)
	}

	// Finish the reloaded job: identical to the uninterrupted run.
	var adv2 AdvanceResponse
	if code := do(t, ts2, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 40}, &adv2); code != http.StatusOK {
		t.Fatalf("resume advance: %d", code)
	}
	if !adv2.Status.Done {
		t.Fatal("resumed job not done")
	}
	if !reflect.DeepEqual(adv2.Status.Result, refAdv.Status.Result) {
		t.Errorf("resumed result differs from uninterrupted run:\nref %+v\ngot %+v",
			refAdv.Status.Result, adv2.Status.Result)
	}

	// DELETE drops the stored snapshot too.
	if code := do(t, ts2, http.MethodDelete, "/v1/jobs/"+st.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if _, err := srv2.Store.Load(st.ID); err == nil {
		t.Error("snapshot still stored after DELETE")
	}
}

// TestCreateJobFromSnapshot: the snapshot payload round-trips through
// job creation on a broker with no store at all.
func TestCreateJobFromSnapshot(t *testing.T) {
	ts := newTestServer(t)
	var st JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs", persistJobReq, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 10}, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	var snap SnapshotResponse
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	if snap.Persisted {
		t.Error("persisted=true without a store")
	}
	var clone JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{Snapshot: snap.Snapshot}, &clone); code != http.StatusCreated {
		t.Fatalf("create from snapshot: %d", code)
	}
	if clone.ID == st.ID {
		t.Error("clone shares the original id")
	}
	if clone.NextRound != 11 || clone.Sellers != 12 || clone.K != 3 || clone.Rounds != 40 {
		t.Errorf("clone status %+v", clone)
	}

	// A corrupt snapshot is a 400, not a 500 or a zombie job.
	bad := json.RawMessage(`{"version":1,"config":{},"state":{"bogus":true}}`)
	if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{Snapshot: bad}, nil); code != http.StatusBadRequest {
		t.Errorf("corrupt snapshot: status %d", code)
	}
}

// TestSnapshotResponseBody: the snapshot body, appended around the
// saved bytes, is exactly what json.Encoder writes for the same
// SnapshotResponse, on a broker without a store (persisted:false) and
// for a job re-created from a snapshot on a broker with one.
func TestSnapshotResponseBody(t *testing.T) {
	snapshot := func(ts *httptest.Server, id string, persisted bool) json.RawMessage {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+id+"/snapshot", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot %s: %d %s", id, resp.StatusCode, body.Bytes())
		}
		var got SnapshotResponse
		if err := json.Unmarshal(body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(SnapshotResponse{ID: id, Persisted: persisted, Snapshot: got.Snapshot}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body.Bytes(), want.Bytes()) {
			t.Fatalf("snapshot %s body differs from json.Encoder's:\n%s\n%s", id, body.Bytes(), want.Bytes())
		}
		return got.Snapshot
	}

	bare := newTestServer(t)
	var st JobStatus
	if code := do(t, bare, http.MethodPost, "/v1/jobs", persistJobReq, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, bare, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 10}, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	data := snapshot(bare, st.ID, false)

	_, stored := persistentTestServer(t, t.TempDir())
	var clone JobStatus
	if code := do(t, stored, http.MethodPost, "/v1/jobs", JobRequest{Snapshot: data}, &clone); code != http.StatusCreated {
		t.Fatalf("create from snapshot: %d", code)
	}
	if again := snapshot(stored, clone.ID, true); !bytes.Equal(again, data) {
		t.Errorf("re-created job saves differently:\n%s\n%s", again, data)
	}
}

func TestHealthzWithStore(t *testing.T) {
	_, ts := persistentTestServer(t, t.TempDir())
	var out Healthz
	if code := do(t, ts, http.MethodGet, "/v1/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.StateStore != "ok" {
		t.Errorf("state store %q, want ok", out.StateStore)
	}
}

// TestSaveAllLoadAllWithoutStore: both error cleanly.
func TestSaveAllLoadAllWithoutStore(t *testing.T) {
	srv := New()
	if err := srv.SaveAll(); err == nil {
		t.Error("SaveAll without store succeeded")
	}
	if err := srv.LoadAll(); err == nil {
		t.Error("LoadAll without store succeeded")
	}
}

// A state directory accumulates more than pristine snapshots over its
// life: crashed atomic renames leave `.job-N-*.tmp` files, the WAL
// keeps `.wal` segments alongside, operators drop backups and editors
// drop swap files in it. List must surface only loadable snapshot
// ids — everything else would turn LoadAll into a boot failure.
func TestFileStoreListSkipsForeignAndPartialFiles(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job-1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job-2", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	// Seed the kinds of dirt a long-lived state dir collects.
	for _, name := range []string{
		".job-3-12345.tmp",     // crashed mid-rename
		"job-1.wal",            // WAL segment riding alongside
		"job-2.json.bak",       // operator backup
		"notes.txt",            // stray file
		".DS_Store",            // desktop droppings
		"job with spaces.json", // name that can't round-trip checkID
		"job..2.json",          // ditto
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "archive.json"), 0o755); err != nil {
		t.Fatal(err) // a DIRECTORY named like a snapshot
	}

	ids, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"job-1", "job-2"}) {
		t.Fatalf("list: %v, want [job-1 job-2]", ids)
	}

	// And a broker booting off this dirty dir loads cleanly.
	srv := New()
	srv.Store = fs
	if err := srv.LoadAll(); err == nil {
		// The two snapshots are junk JSON here, so LoadAll fails on
		// content — but it must fail on CONTENT, not on foreign files.
		t.Log("LoadAll accepted junk snapshots (fine for this test)")
	}
}

// TestLoadAllVersion1Snapshot: a state dir written while snapshots
// still carried the ledger's full journal (mechanism state version 1)
// is refused on a snapshot store and on a WAL store with the typed
// version error. No job is registered, and the dir is left byte for
// byte as it was, so the release that still reads version 1 can
// upgrade it.
func TestLoadAllVersion1Snapshot(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "session_v1_m20-k5-faults-r40.json"))
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]func(dir string) (Store, error){
		"file": func(dir string) (Store, error) { return NewFileStore(dir) },
		"wal": func(dir string) (Store, error) {
			ws, err := NewWALStore(dir)
			if err == nil {
				t.Cleanup(func() { ws.Close() })
			}
			return ws, err
		},
	}
	// dirFiles reads every file in dir by name.
	dirFiles := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	for kind, open := range stores {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			store, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Save("job-7", fixture); err != nil {
				t.Fatal(err)
			}
			if wal, ok := store.(RoundWAL); ok {
				if err := wal.ResetWAL("job-7", 41); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(dir)
			srv := New()
			srv.Store = store
			if err := srv.LoadAll(); !errors.Is(err, core.ErrStateVersion) {
				t.Fatalf("LoadAll of a version-1 snapshot: %v, want ErrStateVersion", err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			var list []JobStatus
			if code := do(t, ts, http.MethodGet, "/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 0 {
				t.Fatalf("jobs after a refused load: status %d, %d jobs, want none", code, len(list))
			}
			if after := dirFiles(dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused load changed the state dir: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestStoreContract pins which concrete store drives which protocol:
// a *FileStore is snapshot-only (never driven as a WAL), a *WALStore
// is a RoundWAL, and either one holds the cluster's leases — the
// WALStore through the FileStore it embeds.
func TestStoreContract(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws := newWALStore(t)
	if _, ok := Store(fs).(RoundWAL); ok {
		t.Fatal("*FileStore satisfies RoundWAL")
	}
	if _, ok := Store(ws).(RoundWAL); !ok {
		t.Fatal("*WALStore does not satisfy RoundWAL")
	}
	s := New()
	for _, c := range []struct {
		store Store
		lease *FileStore
		kind  string
	}{{fs, fs, "file"}, {ws, ws.FileStore, "wal"}} {
		s.Store = c.store
		if got := s.leaseStore(); got != c.lease {
			t.Errorf("%s: lease store %p, want %p", c.kind, got, c.lease)
		}
		if got := s.storeKind(); got != c.kind {
			t.Errorf("store kind %q, want %q", got, c.kind)
		}
	}
}

// TestDurableWritersCleanUpOnFailure drives each of the store's three
// durable writers — snapshot, lease record, segment reset — into a
// failed rename (a directory squats on the target name): each must
// return an error, leave no temp file behind, and, for the segment,
// register no open handle. With the squatter gone the same write
// succeeds, again without litter.
func TestDurableWritersCleanUpOnFailure(t *testing.T) {
	ws := newWALStore(t)
	for _, c := range []struct {
		name, target string
		write        func() error
	}{
		{"snapshot", "job-1.json", func() error { return ws.Save("job-1", []byte("{}")) }},
		{"lease record", "job-1.json.lease", func() error {
			return ws.writeLeaseLocked("job-1", Lease{Job: "job-1", Owner: "a", Epoch: 1})
		}},
		{"segment reset", "job-1.wal", func() error { return ws.ResetWAL("job-1", 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			squat := filepath.Join(ws.Dir(), c.target)
			if err := os.MkdirAll(filepath.Join(squat, "keep"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := c.write(); err == nil {
				t.Fatal("write over a directory succeeded")
			}
			assertNoTemps(t, ws.Dir())
			if st := ws.WALStats(); st.OpenSegments != 0 || st.Resets != 0 {
				t.Fatalf("failed write left WAL state behind: %+v", st)
			}
			if err := os.RemoveAll(squat); err != nil {
				t.Fatal(err)
			}
			if err := c.write(); err != nil {
				t.Fatal(err)
			}
			assertNoTemps(t, ws.Dir())
			if err := ws.Delete("job-1"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// Dir returns the backing directory.
func (f *FileStore) Dir() string { return f.dir }

// snapPayload is a deterministic 6000-byte snapshot stand-in: payloads
// with different tags differ at almost every byte, and each spans two
// pages of its region.
func snapPayload(tag int64) []byte {
	b := make([]byte, 6000)
	rand.New(rand.NewSource(tag)).Read(b)
	return b
}

// readSnapFile parses id's two-region file or fails the test.
func readSnapFile(t *testing.T, fs *FileStore, id string) snapFile {
	t.Helper()
	buf, err := os.ReadFile(fs.path(id))
	if err != nil {
		t.Fatal(err)
	}
	sf, ok := parseSnapFile(buf)
	if !ok {
		t.Fatalf("%s is not a two-region file", id)
	}
	return sf
}

// writeAt overwrites bytes of a file in place, as a crash mid-write
// leaves them.
func writeAt(t *testing.T, path string, off int, b []byte) {
	t.Helper()
	h, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(b, int64(off)); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFileCrashPoints damages the region an in-place save was
// writing the way a crash would leave it. Load must return the last
// acknowledged snapshot, the next save must go into the damaged region
// and leave the good one alone, and Load then returns the new bytes.
// With both regions damaged, Load refuses with ErrSnapshotCorrupt.
func TestSnapshotFileCrashPoints(t *testing.T) {
	const id = "job-1"
	next := snapPayload(100)
	img := putRegion(make([]byte, regionHeaderSize+len(next)), 99, next) // a save's region image
	half := regionHeaderSize + len(next)/2
	crashes := []struct {
		name string
		off  int // within the region
		b    []byte
	}{
		{"torn header", 0, img[:10]},
		{"torn payload", 0, img[:half]},
		{"new payload under old header", regionHeaderSize, img[regionHeaderSize:]},
		{"new header over old payload", 0, img[:regionHeaderSize]},
		{"zeroed first page", 0, make([]byte, snapPage)},
		{"zeroed second page", snapPage, make([]byte, snapPage)},
	}
	// setUp saves until the region after the newest is target and
	// returns the acknowledged bytes and their generation.
	setUp := func(t *testing.T, target int) (*FileStore, []byte, uint64) {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var acked []byte
		for i := 0; i < 2+target; i++ {
			acked = snapPayload(int64(i))
			if err := fs.Save(id, acked); err != nil {
				t.Fatal(err)
			}
		}
		sf := readSnapFile(t, fs, id)
		if n := sf.newest(); n != 1-target {
			t.Fatalf("newest region %d, want %d", n, 1-target)
		}
		return fs, acked, sf.gen[1-target]
	}
	for target := 0; target < 2; target++ {
		for _, c := range crashes {
			t.Run(fmt.Sprintf("region %d/%s", target, c.name), func(t *testing.T) {
				fs, acked, gen := setUp(t, target)
				region := readSnapFile(t, fs, id).region
				writeAt(t, fs.path(id), snapPage+target*region+c.off, c.b)
				if got, err := fs.Load(id); err != nil || !bytes.Equal(got, acked) {
					t.Fatalf("load after the crash: %d bytes, err %v; want the acknowledged snapshot", len(got), err)
				}
				if err := fs.Save(id, next); err != nil {
					t.Fatal(err)
				}
				sf := readSnapFile(t, fs, id)
				if sf.gen[target] != gen+1 || !bytes.Equal(sf.payload[target], next) {
					t.Fatalf("the save did not go into the damaged region: gens %v", sf.gen)
				}
				if sf.gen[1-target] != gen || !bytes.Equal(sf.payload[1-target], acked) {
					t.Fatalf("the save touched the good region: gens %v", sf.gen)
				}
				if got, err := fs.Load(id); err != nil || !bytes.Equal(got, next) {
					t.Fatalf("load after the save: %d bytes, err %v", len(got), err)
				}
			})
		}
	}
	t.Run("both regions", func(t *testing.T) {
		fs, _, _ := setUp(t, 0)
		region := readSnapFile(t, fs, id).region
		for r := 0; r < 2; r++ {
			writeAt(t, fs.path(id), snapPage+r*region+snapPage, make([]byte, snapPage))
		}
		if _, err := fs.Load(id); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("load with both regions damaged: %v, want ErrSnapshotCorrupt", err)
		}
		if err := fs.Save(id, next); err != nil {
			t.Fatal(err)
		}
		if got, err := fs.Load(id); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("load after the save: %d bytes, err %v", len(got), err)
		}
	})
}

// TestSnapshotFileSavesInPlace: the first save and a snapshot that
// outgrows its region replace the file; every other save rewrites a
// region of the same file, which keeps its size.
func TestSnapshotFileSavesInPlace(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-1"
	stat := func() os.FileInfo {
		t.Helper()
		st, err := os.Stat(fs.path(id))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if err := fs.Save(id, snapPayload(1)); err != nil {
		t.Fatal(err)
	}
	first := stat()
	for i := int64(2); i < 6; i++ {
		if err := fs.Save(id, snapPayload(i)); err != nil {
			t.Fatal(err)
		}
		if st := stat(); !os.SameFile(first, st) || st.Size() != first.Size() {
			t.Fatalf("save %d replaced the file or changed its size (%d → %d bytes)", i, first.Size(), st.Size())
		}
	}
	if gens := readSnapFile(t, fs, id).gen; gens != [2]uint64{5, 4} {
		t.Fatalf("generations %v after five saves, want [5 4]", gens)
	}
	big := bytes.Repeat(snapPayload(6), 3)
	if err := fs.Save(id, big); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(first, stat()) {
		t.Fatal("a snapshot that outgrew its region was written in place")
	}
	if sf := readSnapFile(t, fs, id); sf.gen != [2]uint64{6, 0} {
		t.Fatalf("replacement generations %v, want [6 0]", sf.gen)
	}
	if got, err := fs.Load(id); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("load: %d bytes, err %v", len(got), err)
	}
	assertNoTemps(t, fs.Dir())
}

// TestFileStoreLoadAllocs pins Load's allocations at the payload it
// returns plus a small constant (the file handle, its path and stat):
// the file is read into a pooled buffer, so a load never allocates the
// whole 4096 + 2R-byte file for a 6 KB snapshot, and its result holds
// only the payload. Not parallel: another test's allocations would
// count.
func TestFileStoreLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops distort allocation counts")
	}
	const slack = 1024
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := snapPayload(1)
	// Two saves fill both regions of the file.
	for i := 0; i < 2; i++ {
		if err := fs.Save("job-1", data); err != nil {
			t.Fatal(err)
		}
	}
	load := func() {
		got, err := fs.Load("job-1")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("load: %d bytes, err %v", len(got), err)
		}
	}
	load() // fill the pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("load: %d bytes allocated per call for a %d-byte snapshot", per, len(data))
	if per > uint64(len(data))+slack {
		t.Fatalf("load allocates %d bytes per call, want at most %d + %d", per, len(data), slack)
	}
}

// TestSnapshotFileLastGeneration: a file whose newest region holds the
// last generation is started over, not given a generation that never
// verifies.
func TestSnapshotFileLastGeneration(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.path("job-1"), newSnapFile(math.MaxUint64, []byte(`{"a":1}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job-1", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Load("job-1"); err != nil || string(got) != `{"a":2}` {
		t.Fatalf("load: %q err %v", got, err)
	}
	if gens := readSnapFile(t, fs, "job-1").gen; gens != [2]uint64{1, 0} {
		t.Fatalf("generations %v, want [1 0]", gens)
	}
}

// TestSnapshotFilePlainJSONUpgrade: a plain-JSON `<id>.json` written
// by a store older than the two-region layout is refused with
// ErrSnapshotCorrupt and left as it is; a save replaces it with a
// two-region file, which is not JSON, so an older binary refuses it.
func TestSnapshotFilePlainJSONUpgrade(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`{"version":1,"config":{},"state":{}}`)
	if err := os.WriteFile(fs.path("job-1"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Load("job-1"); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("plain JSON loaded as %q, err %v, want ErrSnapshotCorrupt", got, err)
	}
	if raw, err := os.ReadFile(fs.path("job-1")); err != nil || !bytes.Equal(raw, old) {
		t.Fatalf("the refused load changed the file: %q, err %v", raw, err)
	}
	if err := fs.Save("job-1", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fs.path("job-1"))
	if err != nil {
		t.Fatal(err)
	}
	if json.Valid(raw) || !bytes.HasPrefix(raw, []byte(snapMagic)) {
		t.Fatalf("the save left %q… on disk", raw[:16])
	}
	if got, err := fs.Load("job-1"); err != nil || string(got) != `{"a":2}` {
		t.Fatalf("load: %q err %v", got, err)
	}
}

// TestFileStoreConcurrentSaves: concurrent saves of one id never pick
// the same region, so each one takes the next generation.
func TestFileStoreConcurrentSaves(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id, writers, each = "job-1", 4, 25
	if err := fs.Save(id, snapPayload(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := fs.Save(id, snapPayload(int64(1+w*each+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sf := readSnapFile(t, fs, id)
	n := sf.newest()
	if want := uint64(1 + writers*each); sf.gen[n] != want || sf.gen[1-n] != want-1 {
		t.Fatalf("generations %v after %d saves: saves raced", sf.gen, want)
	}
	if got, err := fs.Load(id); err != nil || !bytes.Equal(got, sf.payload[n]) {
		t.Fatalf("load: %d bytes, err %v", len(got), err)
	}
}

// TestFileStoreSaveLocksBounded: the per-id save locks do not outlive
// the saves that took them, so saving and deleting many jobs leaves
// none behind.
func TestFileStoreSaveLocksBounded(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const ids, workers = 10000, 4
	data := []byte(`{}`)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < ids; i += workers {
				id := "job-" + strconv.Itoa(i)
				if err := fs.Save(id, data); err != nil {
					t.Error(err)
					return
				}
				if err := fs.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	fs.saving.mu.Lock()
	defer fs.saving.mu.Unlock()
	if n := len(fs.saving.m); n != 0 {
		t.Fatalf("%d save locks left after saving and deleting %d ids", n, ids)
	}
}
