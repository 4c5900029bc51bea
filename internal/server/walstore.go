package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

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
// shutdown), AppendWALEncoded after every advance, LoadWAL on restart.
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

// WALStore is the file-backed RoundWAL: the embedded FileStore (its
// snapshots, leases and clock) plus one `<id>.wal` segment per job in
// the same directory. Appends go through a persistent O_APPEND handle
// and are fsynced once per batch (one advance call = one batch), so a
// kill -9 can tear at most the final line of a segment — which
// ReadSegment discards by design.
type WALStore struct {
	*FileStore

	mu   sync.Mutex
	open map[string]*walSegment

	appended  atomic.Uint64
	resets    atomic.Uint64
	tornTails atomic.Uint64
}

// walSegment is one job's open segment handle.
type walSegment struct {
	f       *os.File
	entries int // records appended since the last reset
}

// NewWALStore creates (if needed) the directory and returns the store.
func NewWALStore(dir string) (*WALStore, error) {
	fs, err := NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	return &WALStore{FileStore: fs, open: make(map[string]*walSegment)}, nil
}

func (w *WALStore) walPath(id string) string {
	return filepath.Join(w.dir, id+".wal")
}

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
	return w.FileStore.Delete(id) // fsyncs the directory for both removals
}

// ResetWAL implements RoundWAL: the fresh header-only segment goes
// through the store's durable-replace path (FileStore.replace), so a
// crash leaves either the old segment (harmless: recovery skips
// entries below the snapshot round) or the new one — never a torn
// header.
func (w *WALStore) ResetWAL(id string, base int) error {
	return w.resetWAL(id, base, 0)
}

// ResetWALFenced implements RoundWAL through the store's write fence.
// The epoch goes into the segment header (see
// roundlog.EncodeSegmentHeader) so recovery can detect segments
// written by a later ownership generation.
func (w *WALStore) ResetWALFenced(id string, base int, owner string, epoch int64) error {
	return w.fenced(id, owner, epoch, func() error { return w.resetWAL(id, base, epoch) })
}

func (w *WALStore) resetWAL(id string, base int, epoch int64) error {
	if err := checkID(id); err != nil {
		return err
	}
	hdr, err := roundlog.EncodeSegmentHeader(id, base, epoch)
	if err != nil {
		return fmt.Errorf("server: wal reset %s: %w", id, err)
	}
	// The replaced file IS the open segment: keep appending through
	// the same handle the header was written with.
	f, err := w.replace("wal reset", id, ".wal", hdr, true)
	if err != nil {
		return err
	}
	w.mu.Lock()
	if old, ok := w.open[id]; ok {
		old.f.Close()
	}
	w.open[id] = &walSegment{f: f}
	w.mu.Unlock()
	w.resets.Add(1)
	return nil
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
