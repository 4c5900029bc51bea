package server

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable lease clock shared by however many
// stores and clusters a test wires together.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// leasePair builds two FileStores over ONE directory — two broker
// processes sharing a state dir — with independent injectable clocks.
func leasePair(t *testing.T) (*FileStore, *FileStore, *fakeClock) {
	t.Helper()
	dir := t.TempDir()
	a, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	a.Now, b.Now = clk.Now, clk.Now
	return a, b, clk
}

func TestLeaseAcquireRenewStealRelease(t *testing.T) {
	a, b, clk := leasePair(t)
	ttl := 10 * time.Second

	// Fresh acquire: epoch 1.
	la, err := a.AcquireLease("job-1", "a", ttl)
	if err != nil || la.Epoch != 1 || la.Owner != "a" {
		t.Fatalf("fresh acquire: %+v err=%v", la, err)
	}

	// A live foreign lease cannot be taken.
	if _, err := b.AcquireLease("job-1", "b", ttl); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire over a live lease: %v", err)
	}

	// Renewal extends the expiry without bumping the epoch.
	clk.Advance(5 * time.Second)
	ren, err := a.RenewLease("job-1", "a", la.Epoch, ttl)
	if err != nil || ren.Epoch != 1 {
		t.Fatalf("renew: %+v err=%v", ren, err)
	}
	if !ren.Expiry().After(la.Expiry()) {
		t.Fatalf("renew did not extend: %v then %v", la.Expiry(), ren.Expiry())
	}

	// Re-acquire by the holder keeps the epoch too.
	again, err := a.AcquireLease("job-1", "a", ttl)
	if err != nil || again.Epoch != 1 {
		t.Fatalf("re-acquire by holder: %+v err=%v", again, err)
	}

	// Expiry + grace passes without renewal: b steals at epoch 2.
	clk.Advance(ttl + leaseGrace + time.Millisecond)
	lb, err := b.AcquireLease("job-1", "b", ttl)
	if err != nil || lb.Epoch != 2 || lb.Owner != "b" {
		t.Fatalf("steal: %+v err=%v", lb, err)
	}

	// The zombie's renewal and fencing checks now fail loudly.
	if _, err := a.RenewLease("job-1", "a", 1, ttl); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie renew: %v", err)
	}
	if err := a.CheckLease("job-1", "a", 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie check: %v", err)
	}
	if err := b.CheckLease("job-1", "b", 2); err != nil {
		t.Fatalf("holder check: %v", err)
	}

	// Release only works for the exact holder; afterwards the lease is
	// gone and anyone can acquire fresh... at epoch 1 again.
	if err := a.ReleaseLease("job-1", "a", 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie release: %v", err)
	}
	if err := b.ReleaseLease("job-1", "b", 2); err != nil {
		t.Fatal(err)
	}
	l, err := b.LoadLease("job-1")
	if err != nil || l != nil {
		t.Fatalf("lease after release: %+v err=%v", l, err)
	}

	// Counters are per-store (per-process): b did the stealing.
	if st := b.LeaseStats(); st.Stolen == 0 {
		t.Fatalf("steal not counted: %+v", st)
	}
}

func TestLeaseClockSkewGraceEdge(t *testing.T) {
	a, b, clk := leasePair(t)
	ttl := 10 * time.Second
	if _, err := a.AcquireLease("job-1", "a", ttl); err != nil {
		t.Fatal(err)
	}

	// Nominally expired but still inside the grace window: a broker
	// whose clock runs slightly ahead must NOT steal yet.
	clk.Advance(ttl + leaseGrace/2)
	if _, err := b.AcquireLease("job-1", "b", ttl); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("steal inside the grace window: %v", err)
	}

	// One tick past expiry+grace: stealable.
	clk.Advance(leaseGrace/2 + time.Millisecond)
	if l, err := b.AcquireLease("job-1", "b", ttl); err != nil || l.Epoch != 2 {
		t.Fatalf("steal past grace: %+v err=%v", l, err)
	}
}

func TestFencedSaveRejectsZombie(t *testing.T) {
	a, b, clk := leasePair(t)
	ttl := 10 * time.Second
	la, err := a.AcquireLease("job-1", "a", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FencedSave("job-1", []byte(`{"gen":"a"}`), "a", la.Epoch); err != nil {
		t.Fatal(err)
	}

	clk.Advance(ttl + leaseGrace + time.Millisecond)
	lb, err := b.AcquireLease("job-1", "b", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FencedSave("job-1", []byte(`{"gen":"b"}`), "b", lb.Epoch); err != nil {
		t.Fatal(err)
	}

	// The zombie's write is rejected and the successor's bytes survive.
	if err := a.FencedSave("job-1", []byte(`{"gen":"zombie"}`), "a", la.Epoch); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie fenced save: %v", err)
	}
	data, err := a.Load("job-1")
	if err != nil || string(data) != `{"gen":"b"}` {
		t.Fatalf("snapshot after fence: %q err=%v", data, err)
	}
	if st := a.LeaseStats(); st.Fenced == 0 {
		t.Fatalf("fence not counted: %+v", st)
	}
}

// TestLeaseRace races two stores over one directory through acquire/
// renew/steal cycles under -race: per round exactly one of the two
// contenders may hold the lease, and epochs only move up.
func TestLeaseRace(t *testing.T) {
	a, b, clk := leasePair(t)
	ttl := 50 * time.Millisecond

	type claim struct {
		ok bool
		l  Lease
	}
	race := func(s *FileStore, owner string) claim {
		l, err := s.AcquireLease("job-1", owner, ttl)
		if err != nil {
			if errors.Is(err, ErrLeaseHeld) {
				return claim{}
			}
			t.Error(err)
			return claim{}
		}
		return claim{ok: true, l: l}
	}

	var lastEpoch int64
	for round := 0; round < 20; round++ {
		var ca, cb claim
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); ca = race(a, "a") }()
		go func() { defer wg.Done(); cb = race(b, "b") }()
		wg.Wait()
		if !ca.ok && !cb.ok {
			t.Fatalf("round %d: nobody holds the lease", round)
		}
		// Both may report ok only if they agree (same-owner re-acquire
		// cannot happen here: owners differ), so exactly one wins.
		if ca.ok && cb.ok {
			t.Fatalf("round %d: split brain: %+v and %+v", round, ca.l, cb.l)
		}
		w := ca.l
		if cb.ok {
			w = cb.l
		}
		if w.Epoch < lastEpoch {
			t.Fatalf("round %d: epoch went backwards: %d after %d", round, w.Epoch, lastEpoch)
		}
		lastEpoch = w.Epoch
		// Let the lease lapse so the next round is a fresh contest.
		clk.Advance(ttl + leaseGrace + time.Millisecond)
	}
}

func TestLeaseCorruptRecordToleratedAsAbsent(t *testing.T) {
	a, _, _ := leasePair(t)
	if err := os.WriteFile(a.leasePath("job-1"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := a.LoadLease("job-1")
	if err != nil || l != nil {
		t.Fatalf("corrupt lease surfaced: %+v err=%v", l, err)
	}
	// The job is not stranded: a fresh acquire overwrites the debris.
	if got, err := a.AcquireLease("job-1", "a", time.Second); err != nil || got.Epoch != 1 {
		t.Fatalf("acquire over corrupt lease: %+v err=%v", got, err)
	}
	if st := a.LeaseStats(); st.Corrupt == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
}

// TestLeaseInvalidRecordsAreCorrupt: a record that decodes but could
// not have been written for this job — another job's, an owner no node
// can be named, an epoch outside [1, MaxInt64) — is debris like a torn
// one. It is never honoured (a steal from epoch -5 must not land at
// -4): it reads as absent, is counted, and a fresh acquire starts the
// first generation.
func TestLeaseInvalidRecordsAreCorrupt(t *testing.T) {
	for name, rec := range map[string]string{
		"foreign job":    `{"job":"job-2","owner":"a","epoch":3,"expiry_unix_nano":1}`,
		"empty owner":    `{"job":"job-1","owner":"","epoch":3,"expiry_unix_nano":1}`,
		"bad owner":      `{"job":"job-1","owner":"a b","epoch":3,"expiry_unix_nano":1}`,
		"zero epoch":     `{"job":"job-1","owner":"a","epoch":0,"expiry_unix_nano":1}`,
		"negative epoch": `{"job":"job-1","owner":"a","epoch":-5,"expiry_unix_nano":1}`,
		"last epoch":     `{"job":"job-1","owner":"a","epoch":9223372036854775807,"expiry_unix_nano":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			a, _, _ := leasePair(t)
			if err := os.WriteFile(a.leasePath("job-1"), []byte(rec), 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := a.LoadLease("job-1"); err != nil || l != nil {
				t.Fatalf("invalid lease surfaced: %+v err=%v", l, err)
			}
			if got, err := a.AcquireLease("job-1", "b", time.Second); err != nil || got.Epoch != 1 {
				t.Fatalf("acquire over invalid lease: %+v err=%v", got, err)
			}
			if st := a.LeaseStats(); st.Corrupt != 2 || st.Stolen != 0 {
				t.Fatalf("stats %+v, want 2 corrupt reads (load, acquire) and no steal", st)
			}
		})
	}
}

func TestLeaseStaleLockBroken(t *testing.T) {
	a, _, _ := leasePair(t)
	lock := a.lockPath("job-1")
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Age the lock past the break threshold (mtime is REAL wall time:
	// a crashed process stops touching its lock, fake clocks don't
	// apply).
	old := time.Now().Add(-2 * lockStaleAfter)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcquireLease("job-1", "a", time.Second); err != nil {
		t.Fatalf("acquire under a stale lock: %v", err)
	}
}

// TestLeaseWaitsOutSlowHolder: a live writer that holds the lease lock
// for longer than a quick retry budget (a slow fsync under load) makes
// the other writer wait, not fail.
func TestLeaseWaitsOutSlowHolder(t *testing.T) {
	a, _, _ := leasePair(t)
	lock := a.lockPath("job-1")
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		time.Sleep(250 * time.Millisecond)
		os.Remove(lock)
		close(released)
	}()
	_, err := a.AcquireLease("job-1", "a", time.Second)
	<-released
	if err != nil {
		t.Fatalf("acquire behind a slow live holder: %v", err)
	}
}

func TestLeaseSweep(t *testing.T) {
	a, _, clk := leasePair(t)
	ttl := time.Second

	// live-job: snapshot + expired lease → kept (it is failover state).
	if err := a.Save("live-job", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcquireLease("live-job", "a", ttl); err != nil {
		t.Fatal(err)
	}
	// gone-job: expired lease, NO snapshot → swept.
	if _, err := a.AcquireLease("gone-job", "a", ttl); err != nil {
		t.Fatal(err)
	}
	// A stale lock file → swept.
	stale := a.lockPath("stuck-job")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * lockStaleAfter)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	clk.Advance(ttl + leaseGrace + time.Millisecond)
	n, err := a.SweepLeases()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("swept %d files, want 2", n)
	}
	if l, _ := a.LoadLease("live-job"); l == nil {
		t.Fatal("live job's lease swept")
	}
	if l, _ := a.LoadLease("gone-job"); l != nil {
		t.Fatal("deleted job's expired lease survived the sweep")
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale lock survived the sweep")
	}
}

func TestListAndLoadAllSkipLeaseFiles(t *testing.T) {
	a, _, _ := leasePair(t)
	if err := a.Save("job-1", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcquireLease("job-1", "a", time.Second); err != nil {
		t.Fatal(err)
	}
	// Orphaned lease (no snapshot), a partial lease write, and a lock
	// file must all be invisible to List.
	if _, err := a.AcquireLease("orphan", "a", time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"job-9.json.lease", "job-9.json.lease.lock"} {
		if err := os.WriteFile(filepath.Join(a.Dir(), f), []byte("{partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "job-1" {
		t.Fatalf("List over lease debris: %v", ids)
	}
}

func TestDeleteRemovesLease(t *testing.T) {
	a, _, _ := leasePair(t)
	if err := a.Save("job-1", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcquireLease("job-1", "a", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if l, _ := a.LoadLease("job-1"); l != nil {
		t.Fatal("lease survived Delete")
	}
}
