package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cmabhs/internal/core"
	"cmabhs/internal/roundlog"
)

// RoundWAL is the optional Store extension for round-granular
// durability: next to each job's snapshot, the store keeps an
// append-only per-job round log (a roundlog WAL segment). Each advance
// appends only the rounds it just played instead of rewriting the
// whole snapshot, and crash recovery becomes load-last-snapshot +
// replay-WAL-tail instead of falling back to the last explicit
// snapshot.
//
// The broker drives the protocol: ResetWAL whenever a fresh snapshot
// of the job is durably saved (creation, compaction, recovery,
// shutdown), AppendWAL after every advance, LoadWAL on restart.
type RoundWAL interface {
	Store

	// ResetWAL atomically replaces id's segment with an empty one
	// whose first round is base — called right after a snapshot at
	// NextRound == base is durably saved, folding the old tail into it.
	ResetWAL(id string, base int) error

	// ResetWALFenced is ResetWAL for a lease-owned job: it runs under
	// the job's lease lock, refuses with ErrLeaseLost unless owner
	// still holds the lease at epoch (so a zombie cannot truncate its
	// successor's segment), and stamps epoch into the segment header.
	ResetWALFenced(id string, base int, owner string, epoch int64) error

	// AppendWAL durably appends the records to id's open segment and
	// returns the total records the segment now holds.
	AppendWAL(id string, recs []core.RoundRecord) (int, error)

	// AppendWALEncoded durably appends n records that the caller has
	// already rendered as segment entry lines (see
	// roundlog.AppendSegmentRecord) — the zero-copy feed the broker's
	// observer uses. It returns the total records the segment holds.
	AppendWALEncoded(id string, data []byte, n int) (int, error)

	// LoadWAL reads id's segment, discarding a torn final line. A
	// missing segment returns (nil, nil): the job predates the WAL or
	// was just reset by a crash between snapshot and reset.
	LoadWAL(id string) (*roundlog.Segment, error)

	// WALStats reports the segment/append/compaction counters for
	// healthz and metrics.
	WALStats() WALStats
}

// WALStats is the point-in-time view of a RoundWAL's activity.
type WALStats struct {
	// OpenSegments is the number of jobs with an open WAL segment.
	OpenSegments int `json:"open_segments"`
	// AppendedRounds counts rounds appended since process start.
	AppendedRounds uint64 `json:"appended_rounds"`
	// Resets counts segment resets (job creations + compactions +
	// recoveries) since process start.
	Resets uint64 `json:"resets"`
	// TornTails counts torn final lines discarded during LoadWAL.
	TornTails uint64 `json:"torn_tails"`
}

// WALStore is the file-backed RoundWAL: a FileStore for snapshots plus
// one `<id>.wal` segment per job in the same directory. Appends go
// through a persistent O_APPEND handle and are fsynced once per batch
// (one advance call = one batch), so a kill -9 can tear at most the
// final line of a segment — which ReadSegment discards by design.
type WALStore struct {
	fs *FileStore

	mu   sync.Mutex
	open map[string]*walSegment

	appended  atomic.Uint64
	resets    atomic.Uint64
	tornTails atomic.Uint64
}

// walSegment is one job's open segment handle.
type walSegment struct {
	f       *os.File
	base    int // first round the segment may hold
	entries int // records appended since the last reset
}

// NewWALStore creates (if needed) the directory and returns the store.
func NewWALStore(dir string) (*WALStore, error) {
	fs, err := NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	return &WALStore{fs: fs, open: make(map[string]*walSegment)}, nil
}

// Dir returns the backing directory.
func (w *WALStore) Dir() string { return w.fs.Dir() }

func (w *WALStore) walPath(id string) string {
	return filepath.Join(w.fs.Dir(), id+".wal")
}

// Save, Load, and List delegate to the snapshot FileStore.
func (w *WALStore) Save(id string, data []byte) error { return w.fs.Save(id, data) }
func (w *WALStore) Load(id string) ([]byte, error)    { return w.fs.Load(id) }
func (w *WALStore) List() ([]string, error)           { return w.fs.List() }

// The LeaseStore extension delegates to the snapshot FileStore too:
// leases live next to the snapshots they guard.
func (w *WALStore) AcquireLease(id, owner string, ttl time.Duration) (Lease, error) {
	return w.fs.AcquireLease(id, owner, ttl)
}
func (w *WALStore) RenewLease(id, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	return w.fs.RenewLease(id, owner, epoch, ttl)
}
func (w *WALStore) ReleaseLease(id, owner string, epoch int64) error {
	return w.fs.ReleaseLease(id, owner, epoch)
}
func (w *WALStore) LoadLease(id string) (*Lease, error) { return w.fs.LoadLease(id) }
func (w *WALStore) CheckLease(id, owner string, epoch int64) error {
	return w.fs.CheckLease(id, owner, epoch)
}
func (w *WALStore) FencedSave(id string, data []byte, owner string, epoch int64) error {
	return w.fs.FencedSave(id, data, owner, epoch)
}
func (w *WALStore) SweepLeases() (int, error) { return w.fs.SweepLeases() }
func (w *WALStore) LeaseStats() LeaseStats    { return w.fs.LeaseStats() }

// SetNow injects a clock into the underlying FileStore's lease-expiry
// decisions (tests drive failover with it); nil restores wall time.
func (w *WALStore) SetNow(fn func() time.Time) { w.fs.Now = fn }

var _ LeaseStore = (*WALStore)(nil)

// Delete removes id's snapshot and its WAL segment, closing the open
// handle first.
func (w *WALStore) Delete(id string) error {
	if err := checkID(id); err != nil {
		return err
	}
	w.mu.Lock()
	if seg, ok := w.open[id]; ok {
		seg.f.Close()
		delete(w.open, id)
	}
	w.mu.Unlock()
	if err := os.Remove(w.walPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: delete %s wal: %w", id, err)
	}
	return w.fs.Delete(id) // fsyncs the directory for both removals
}

// ResetWAL implements RoundWAL: the fresh header-only segment is
// written to a temp file, fsynced, and renamed over the old one, so a
// crash leaves either the old segment (harmless: recovery skips
// entries below the snapshot round) or the new one — never a torn
// header.
func (w *WALStore) ResetWAL(id string, base int) error {
	return w.resetWAL(id, base, 0)
}

// ResetWALFenced implements RoundWAL. The epoch goes into the segment
// header (see roundlog.EncodeSegmentHeaderEpoch) so recovery can detect
// segments written by a later ownership generation.
func (w *WALStore) ResetWALFenced(id string, base int, owner string, epoch int64) error {
	if err := checkID(id); err != nil {
		return err
	}
	return w.fs.withLeaseLock(id, func() error {
		cur, err := w.fs.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if cur == nil || cur.Owner != owner || cur.Epoch != epoch {
			w.fs.leaseFenced.Add(1)
			return leaseLostErr(id, owner, epoch, cur)
		}
		return w.resetWAL(id, base, epoch)
	})
}

func (w *WALStore) resetWAL(id string, base int, epoch int64) error {
	if err := checkID(id); err != nil {
		return err
	}
	hdr, err := roundlog.EncodeSegmentHeaderEpoch(id, base, epoch)
	if err != nil {
		return fmt.Errorf("server: wal reset %s: %w", id, err)
	}
	tmp, err := os.CreateTemp(w.fs.Dir(), "."+id+"-wal-*.tmp")
	if err != nil {
		return fmt.Errorf("server: wal reset %s: %w", id, err)
	}
	_, werr := tmp.Write(hdr)
	serr := tmp.Sync()
	if err := errors.Join(werr, serr); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("server: wal reset %s: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), w.walPath(id)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("server: wal reset %s: %w", id, err)
	}
	if err := syncDir(w.fs.Dir()); err != nil {
		tmp.Close()
		return fmt.Errorf("server: wal reset %s: %w", id, err)
	}
	// The renamed file IS the open segment: keep appending through the
	// same handle the header was written with.
	w.mu.Lock()
	if old, ok := w.open[id]; ok {
		old.f.Close()
	}
	w.open[id] = &walSegment{f: tmp, base: base}
	w.mu.Unlock()
	w.resets.Add(1)
	return nil
}

// AppendWAL implements RoundWAL: the batch is rendered to entry lines
// and handed to AppendWALEncoded.
func (w *WALStore) AppendWAL(id string, recs []core.RoundRecord) (int, error) {
	if err := checkID(id); err != nil {
		return 0, err
	}
	data, err := roundlog.EncodeSegmentRecords(recs)
	if err != nil {
		return 0, fmt.Errorf("server: wal append %s: %w", id, err)
	}
	return w.AppendWALEncoded(id, data, len(recs))
}

// AppendWALEncoded implements RoundWAL. The whole pre-encoded batch is
// written with one Write + one fsync, so an advance of n rounds costs
// one disk round-trip, not n.
func (w *WALStore) AppendWALEncoded(id string, data []byte, n int) (int, error) {
	if err := checkID(id); err != nil {
		return 0, err
	}
	if n == 0 {
		w.mu.Lock()
		var have int
		if seg, ok := w.open[id]; ok {
			have = seg.entries
		}
		w.mu.Unlock()
		return have, nil
	}
	w.mu.Lock()
	seg, ok := w.open[id]
	w.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("server: wal append %s: no open segment (ResetWAL first)", id)
	}
	if _, err := seg.f.Write(data); err != nil {
		return seg.entries, fmt.Errorf("server: wal append %s: %w", id, err)
	}
	if err := seg.f.Sync(); err != nil {
		return seg.entries, fmt.Errorf("server: wal append %s: %w", id, err)
	}
	w.mu.Lock()
	seg.entries += n
	total := seg.entries
	w.mu.Unlock()
	w.appended.Add(uint64(n))
	return total, nil
}

// LoadWAL implements RoundWAL.
func (w *WALStore) LoadWAL(id string) (*roundlog.Segment, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(w.walPath(id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("server: wal load %s: %w", id, err)
	}
	seg, err := roundlog.ReadSegment(data)
	if err != nil {
		return nil, fmt.Errorf("server: wal load %s: %w", id, err)
	}
	if seg.Torn {
		w.tornTails.Add(1)
	}
	return seg, nil
}

// WALStats implements RoundWAL.
func (w *WALStore) WALStats() WALStats {
	w.mu.Lock()
	open := len(w.open)
	w.mu.Unlock()
	return WALStats{
		OpenSegments:   open,
		AppendedRounds: w.appended.Load(),
		Resets:         w.resets.Load(),
		TornTails:      w.tornTails.Load(),
	}
}

// Close closes every open segment handle. Appended data is already
// durable (every append fsyncs); Close just releases descriptors.
func (w *WALStore) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var firstErr error
	for id, seg := range w.open {
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(w.open, id)
	}
	return firstErr
}

var _ RoundWAL = (*WALStore)(nil)
