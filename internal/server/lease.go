package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// Lease-based job ownership. In a multi-node deployment every broker
// shares one Store; a job may be served by exactly one node at a time,
// and that node proves its claim with a lease record kept next to the
// job's snapshot. The protocol:
//
//   - Acquire: a node takes an absent lease (epoch 1), or STEALS an
//     expired one at epoch+1. An unexpired lease held by another node
//     cannot be taken — the holder is presumed alive until it misses
//     its renewals.
//   - Renew: the holder extends its expiry without changing the epoch.
//     Renewal fails the moment another node has stolen the lease, which
//     is how a zombie owner learns it lost the job.
//   - Fencing: every store write an owner performs carries its (owner,
//     epoch) claim; writes whose claim no longer matches the lease on
//     disk are rejected. The epoch is monotonic across steals, so a
//     resurrected owner can never un-happen a successor's progress.
//
// All lease mutations for one job serialize through an O_EXCL lock
// file (`<id>.lease.lock`), and the record itself is replaced with a
// temp-file + rename, so concurrent brokers racing Acquire/Renew/Steal
// observe each other's writes atomically — the same durable-replace
// path (FileStore.replace) WAL resets and a snapshot file's first
// write use. Every fenced write (FencedSave, ResetWALFenced) runs its
// write — a segment rename, or a snapshot's in-place region write or
// whole-file replace — INSIDE that lock through one check
// (FileStore.fenced), making fencing atomic with respect to a
// concurrent steal, not merely check-then-write.

// Lease is one job's ownership record.
type Lease struct {
	Job   string `json:"job"`
	Owner string `json:"owner"`
	// Epoch counts ownership generations: 1 at first acquisition,
	// incremented every time an expired lease is stolen. It is the
	// fencing token carried by every store write.
	Epoch int64 `json:"epoch"`
	// ExpiryUnixNano is the wall-clock instant the lease lapses unless
	// renewed first.
	ExpiryUnixNano int64 `json:"expiry_unix_nano"`
}

// Expiry returns the expiry instant.
func (l Lease) Expiry() time.Time { return time.Unix(0, l.ExpiryUnixNano) }

// Expired reports whether the lease has lapsed at now, with grace
// added to absorb clock skew between brokers: a lease is only treated
// as dead once it is grace past its stated expiry.
func (l Lease) Expired(now time.Time, grace time.Duration) bool {
	return now.After(l.Expiry().Add(grace))
}

// Errors of the lease protocol. ErrLeaseHeld means another node holds
// an unexpired lease (the caller should proxy or retry after the
// holder's expiry); ErrLeaseLost means the caller's claim is stale —
// its lease was stolen at a higher epoch — and it must stop serving
// and writing the job immediately. ErrLeaseLockBusy means the job's
// lease lock stayed held by live writers for longer than a stale lock
// may live; the operation did nothing and may be retried.
var (
	ErrLeaseHeld     = errors.New("server: lease held by another node")
	ErrLeaseLost     = errors.New("server: lease lost (stolen at a higher epoch)")
	ErrLeaseLockBusy = errors.New("server: lease lock contended")
)

// LeaseStats is the point-in-time view of a FileStore's lease activity.
type LeaseStats struct {
	// Acquired counts fresh grants and renewals-via-acquire.
	Acquired uint64 `json:"acquired"`
	// Stolen counts expired leases taken over at a higher epoch.
	Stolen uint64 `json:"stolen"`
	// Fenced counts writes rejected because the writer's claim was
	// stale — each one is a zombie owner stopped from corrupting state.
	Fenced uint64 `json:"fenced"`
	// Corrupt counts unreadable or invalid lease records tolerated as
	// absent.
	Corrupt uint64 `json:"corrupt"`
	// Swept counts lease/lock files garbage-collected by SweepLeases.
	Swept uint64 `json:"swept"`
}

// leaseGrace is the clock-skew allowance baked into expiry decisions:
// a lease only becomes stealable this long past its stated expiry, so
// two brokers whose clocks disagree by less than this never both
// believe they hold the same job.
const leaseGrace = 500 * time.Millisecond

// lockStaleAfter is how old (by file mtime, real wall clock) a
// `.lease.lock` file must be before another writer may break it — the
// recovery path for a broker that crashed between taking the lock and
// removing it.
const lockStaleAfter = 5 * time.Second

func (f *FileStore) leasePath(id string) string { return f.path(id) + leaseSuffix }
func (f *FileStore) lockPath(id string) string  { return f.path(id) + leaseLockSuffix }

const (
	leaseSuffix     = ".lease"
	leaseLockSuffix = ".lease.lock"
)

// now returns the store's clock — the Now field when set (tests inject
// a fake clock through it), wall time otherwise.
func (f *FileStore) now() time.Time {
	if f.Now != nil {
		return f.Now()
	}
	return time.Now()
}

// withLeaseLock runs fn while holding id's lease lock file. The lock
// is the cross-process serialization point for every lease mutation
// and fenced write; a stale lock (older than lockStaleAfter) left by a
// crashed writer is broken. A live holder is waited for up to
// lockStaleAfter — however slow its fsyncs, its lock is either
// released or broken by then — so only a chain of fresh holders that
// outlasts that bound gives up, with ErrLeaseLockBusy.
func (f *FileStore) withLeaseLock(id string, fn func() error) error {
	lock := f.lockPath(id)
	start := time.Now()
	for {
		h, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			h.Close()
			break
		}
		if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("server: lease lock %s: %w", id, err)
		}
		if st, serr := os.Stat(lock); serr == nil && time.Since(st.ModTime()) > lockStaleAfter {
			// A crashed writer's leftover: break it and retry. The
			// remove may race another breaker; both retries converge on
			// one of them holding a fresh lock.
			os.Remove(lock)
			continue
		}
		if time.Since(start) > lockStaleAfter {
			return fmt.Errorf("%w: %s", ErrLeaseLockBusy, id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer os.Remove(lock)
	return fn()
}

// loadLeaseLocked reads id's lease record. Caller holds the lease
// lock (or accepts a point-in-time read). A corrupt record — one that
// does not decode, or whose job is not id, whose owner is not a valid
// node id, or whose epoch is outside [1, MaxInt64) (a steal from the
// last epoch would wrap) — is treated as absent and counted: it is a
// crashed writer's debris, and treating it as fatal would strand the
// job forever.
func (f *FileStore) loadLeaseLocked(id string) (*Lease, error) {
	data, err := os.ReadFile(f.leasePath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: lease load %s: %w", id, err)
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil ||
		l.Job != id || checkID(l.Owner) != nil || l.Epoch < 1 || l.Epoch == math.MaxInt64 {
		f.leaseCorrupt.Add(1)
		return nil, nil
	}
	return &l, nil
}

// writeLeaseLocked atomically replaces id's lease record. Caller
// holds the lease lock.
func (f *FileStore) writeLeaseLocked(id string, l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("server: lease save %s: %w", id, err)
	}
	_, err = f.replace("lease save", id, ".json"+leaseSuffix, data, false)
	return err
}

// checkClaim returns nil iff cur is exactly (owner, epoch)'s lease on
// id, ErrLeaseLost otherwise.
func checkClaim(id, owner string, epoch int64, cur *Lease) error {
	if cur != nil && cur.Owner == owner && cur.Epoch == epoch {
		return nil
	}
	if cur == nil {
		return fmt.Errorf("%w: %s claims %s@%d but no lease exists", ErrLeaseLost, owner, id, epoch)
	}
	return fmt.Errorf("%w: %s claims %s@%d but %s holds epoch %d",
		ErrLeaseLost, owner, id, epoch, cur.Owner, cur.Epoch)
}

// fenced is the write fence every fenced store write goes through: it
// runs write under id's lease lock only while (owner, epoch) still
// holds the lease, so the write is atomic with respect to a concurrent
// steal. A stale claim is counted in LeaseStats.Fenced and returns
// ErrLeaseLost without writing.
func (f *FileStore) fenced(id, owner string, epoch int64, write func() error) error {
	if err := checkID(id); err != nil {
		return err
	}
	return f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if err := checkClaim(id, owner, epoch, cur); err != nil {
			f.leaseFenced.Add(1)
			return err
		}
		return write()
	})
}

// AcquireLease acquires or renews id's lease for owner with the given
// ttl: granted fresh at epoch 1, extended in place when owner already
// holds it, stolen at epoch+1 when the current lease is expired (past
// its grace). An unexpired foreign lease returns ErrLeaseHeld.
func (f *FileStore) AcquireLease(id, owner string, ttl time.Duration) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	var out Lease
	err := f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		now := f.now()
		next := Lease{Job: id, Owner: owner, Epoch: 1, ExpiryUnixNano: now.Add(ttl).UnixNano()}
		switch {
		case cur == nil:
			// fresh grant at epoch 1
		case cur.Owner == owner:
			next.Epoch = cur.Epoch // renewal-via-acquire keeps the epoch
		case cur.Expired(now, leaseGrace):
			next.Epoch = cur.Epoch + 1 // steal
			f.leaseStolen.Add(1)
		default:
			return fmt.Errorf("%w: %s holds %s until %s",
				ErrLeaseHeld, cur.Owner, id, cur.Expiry().Format(time.RFC3339Nano))
		}
		if err := f.writeLeaseLocked(id, next); err != nil {
			return err
		}
		out = next
		return nil
	})
	if err == nil {
		f.leaseAcquired.Add(1)
	}
	return out, err
}

// RenewLease extends the expiry of a lease owner holds at exactly the
// given epoch. Any mismatch — stolen, released, missing — returns
// ErrLeaseLost: unlike AcquireLease, a zombie that lost its lease must
// learn so, not silently re-acquire at a new epoch.
func (f *FileStore) RenewLease(id, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	var out Lease
	err := f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if err := checkClaim(id, owner, epoch, cur); err != nil {
			return err
		}
		next := *cur
		next.ExpiryUnixNano = f.now().Add(ttl).UnixNano()
		if err := f.writeLeaseLocked(id, next); err != nil {
			return err
		}
		out = next
		return nil
	})
	return out, err
}

// ReleaseLease removes id's lease if owner holds it at epoch
// (graceful shutdown / handoff). A mismatched or missing lease returns
// ErrLeaseLost; the job itself is untouched either way.
func (f *FileStore) ReleaseLease(id, owner string, epoch int64) error {
	if err := checkID(id); err != nil {
		return err
	}
	return f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if err := checkClaim(id, owner, epoch, cur); err != nil {
			return err
		}
		if err := os.Remove(f.leasePath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: lease release %s: %w", id, err)
		}
		return syncDir(f.dir)
	})
}

// LoadLease returns id's current lease, or nil when none exists. A
// corrupt record is treated as absent and counted in
// LeaseStats.Corrupt rather than bricking the job. It reads without
// the lock — a point-in-time view is all routing decisions need.
func (f *FileStore) LoadLease(id string) (*Lease, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	return f.loadLeaseLocked(id)
}

// CheckLease is the read fence: nil iff id's lease is held by exactly
// (owner, epoch); ErrLeaseLost (counted in LeaseStats.Fenced)
// otherwise.
func (f *FileStore) CheckLease(id, owner string, epoch int64) error {
	cur, err := f.LoadLease(id)
	if err != nil {
		return err
	}
	if err := checkClaim(id, owner, epoch, cur); err != nil {
		f.leaseFenced.Add(1)
		return err
	}
	return nil
}

// FencedSave writes a snapshot only while (owner, epoch) still holds
// id's lease: the fencing check and the snapshot write (see Save)
// happen under the same lease lock a steal must take, so the outcome
// is always one of {old snapshot + old lease, old snapshot + new
// lease, new snapshot + old lease} — never a stale owner's bytes
// landing after a successor's.
func (f *FileStore) FencedSave(id string, data []byte, owner string, epoch int64) error {
	return f.fenced(id, owner, epoch, func() error { return f.Save(id, data) })
}

// SweepLeases garbage-collects lease debris: expired leases whose job
// snapshot no longer exists, and stale lock files left by crashed
// writers. It returns the number of files removed.
func (f *FileStore) SweepLeases() (int, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return 0, fmt.Errorf("server: lease sweep: %w", err)
	}
	removed := 0
	now := f.now()
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".json"+leaseLockSuffix):
			// A writer's lock: break it only when stale (mtime is real
			// wall time — a crashed process stops touching its lock).
			if st, err := e.Info(); err == nil && time.Since(st.ModTime()) > lockStaleAfter {
				if os.Remove(f.dir+string(os.PathSeparator)+name) == nil {
					removed++
				}
			}
		case strings.HasSuffix(name, ".json"+leaseSuffix):
			id := strings.TrimSuffix(name, ".json"+leaseSuffix)
			if checkID(id) != nil {
				continue
			}
			l, err := f.loadLeaseLocked(id)
			if err != nil || l == nil {
				continue
			}
			if !l.Expired(now, leaseGrace) {
				continue
			}
			if _, err := os.Stat(f.path(id)); !errors.Is(err, os.ErrNotExist) {
				continue // job still exists; its lease is takeover state, not garbage
			}
			// Expired lease of a deleted job: pure debris.
			err = f.withLeaseLock(id, func() error {
				if cur, _ := f.loadLeaseLocked(id); cur == nil || !cur.Expired(f.now(), leaseGrace) {
					return nil
				}
				return os.Remove(f.leasePath(id))
			})
			if err == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		f.leaseSwept.Add(uint64(removed))
		if err := syncDir(f.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// LeaseStats reports the protocol counters for healthz and metrics.
func (f *FileStore) LeaseStats() LeaseStats {
	return LeaseStats{
		Acquired: f.leaseAcquired.Load(),
		Stolen:   f.leaseStolen.Load(),
		Fenced:   f.leaseFenced.Load(),
		Corrupt:  f.leaseCorrupt.Load(),
		Swept:    f.leaseSwept.Load(),
	}
}
