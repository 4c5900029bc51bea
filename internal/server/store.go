package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store persists job snapshots across broker restarts. Implementations
// must make Save atomic: a crash mid-save leaves either the previous
// snapshot or the new one, never a torn one.
type Store interface {
	// Save durably stores the snapshot bytes under id, replacing any
	// previous snapshot of that id.
	Save(id string, data []byte) error
	// Load returns the snapshot stored under id.
	Load(id string) ([]byte, error)
	// Delete removes id's snapshot; deleting a missing id is not an
	// error.
	Delete(id string) error
	// List returns the stored ids in stable order.
	List() ([]string, error)
}

// FileStore is the broker's one file-backed store: one `<id>.json`
// snapshot file per job, holding the snapshot in one of two
// checksummed regions (snapfile.go) so readers and crash recovery
// never observe a partial snapshot. Multi-node deployments also keep
// a `<id>.json.lease` ownership record next to each snapshot
// (lease.go), and WALStore embeds a FileStore to add a `<id>.wal`
// round log beside both. Its Now is the one clock every lease and
// ownership decision reads.
type FileStore struct {
	dir string

	// Now, when set, replaces wall time in every lease expiry and
	// ownership decision — the injection point the clock-skew and
	// failover tests use. Set it before the store is shared; nil means
	// time.Now.
	Now func() time.Time

	// saving serializes the saves of one id in this process: two
	// saves that read the same file would pick the same region.
	saving idLocks

	// The lease protocol's counters, reported by LeaseStats.
	leaseAcquired, leaseStolen, leaseFenced, leaseCorrupt, leaseSwept atomic.Uint64
}

// idLocks is a set of per-id mutexes. An entry lives only while a
// holder or a waiter needs it, so the map is bounded by the saves in
// flight, not by every id ever saved.
type idLocks struct {
	mu sync.Mutex
	m  map[string]*idLock
}

type idLock struct {
	sync.Mutex
	refs int
}

// lock takes id's mutex and returns its release.
func (l *idLocks) lock(id string) (unlock func()) {
	l.mu.Lock()
	e := l.m[id]
	if e == nil {
		if l.m == nil {
			l.m = make(map[string]*idLock)
		}
		e = &idLock{}
		l.m[id] = e
	}
	e.refs++
	l.mu.Unlock()
	e.Lock()
	return func() {
		e.Unlock()
		l.mu.Lock()
		if e.refs--; e.refs == 0 {
			delete(l.m, id)
		}
		l.mu.Unlock()
	}
}

// NewFileStore creates (if needed) the directory and returns the
// store.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, errors.New("server: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// checkID rejects ids that could escape the directory.
func checkID(id string) error {
	if id == "" {
		return errors.New("server: empty snapshot id")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("server: snapshot id %q contains %q", id, r)
		}
	}
	return nil
}

func (f *FileStore) path(id string) string {
	return filepath.Join(f.dir, id+".json")
}

// maxSnapshotBytes bounds one snapshot, so its region size fits the
// file header's 32 bits.
const maxSnapshotBytes = 1 << 30

// Save implements Store. When `<id>.json` is already a two-region
// file whose regions can hold data, data goes into the region that
// does not hold the newest verified snapshot, at the next generation,
// with one write and one fsync. Otherwise — the job's first save, a
// snapshot that outgrew its region, or a file that is not one this
// store writes — the whole file is replaced (see replace), with data
// in region 0. The region is chosen from what is on disk at every
// save, never from a cached generation, so an ownership steal and
// steal-back cannot reuse one.
func (f *FileStore) Save(id string, data []byte) error {
	if err := checkID(id); err != nil {
		return err
	}
	if len(data) > maxSnapshotBytes {
		return fmt.Errorf("server: save %s: snapshot of %d bytes exceeds %d", id, len(data), maxSnapshotBytes)
	}
	defer f.saving.lock(id)()
	gen, done, err := f.saveInPlace(id, data)
	if done || err != nil {
		return err
	}
	_, err = f.replace("save", id, ".json", newSnapFile(gen, data), false)
	return err
}

// saveInPlace writes data into the older region of id's two-region
// file. It reports done=false, with the generation the replacement
// file should carry, when the file must be replaced instead.
func (f *FileStore) saveInPlace(id string, data []byte) (gen uint64, done bool, err error) {
	h, err := os.OpenFile(f.path(id), os.O_RDWR, 0)
	if err != nil {
		return 1, false, nil
	}
	defer h.Close()
	bp, err := readFileBuf(h)
	if err != nil {
		return 1, false, nil
	}
	defer fileBufs.Put(bp)
	buf := *bp
	sf, ok := parseSnapFile(buf)
	if !ok {
		return 1, false, nil
	}
	target, gen := 0, uint64(1)
	if n := sf.newest(); n >= 0 {
		target, gen = 1-n, sf.gen[n]+1
	}
	if gen == 0 { // the newest region holds the last generation
		return 1, false, nil
	}
	if regionHeaderSize+len(data) > sf.region {
		return gen, false, nil
	}
	off := snapPage + target*sf.region
	if _, err := h.WriteAt(putRegion(buf[off:], gen, data), int64(off)); err != nil {
		return 0, false, fmt.Errorf("server: save %s: %w", id, err)
	}
	if err := h.Sync(); err != nil {
		return 0, false, fmt.Errorf("server: save %s: %w", id, err)
	}
	return 0, true, nil
}

// replace is the one durable-replace path for every whole file the
// store writes (a new snapshot file, lease record, WAL segment
// header): the bytes go to a hidden temp file that is fsynced and
// closed, renamed over `<id><suffix>`, and the directory is fsynced,
// so a crash leaves either the old file or the new one — never a torn
// one — and the rename itself survives a power loss. A failure before
// the rename removes the temp file. With keep, the temp file is not
// closed: its still-open handle, now naming the replaced file, is
// returned for further appends (the WAL segment's); otherwise the
// result is nil. op prefixes errors.
func (f *FileStore) replace(op, id, suffix string, data []byte, keep bool) (*os.File, error) {
	fail := func(err error) (*os.File, error) {
		return nil, fmt.Errorf("server: %s %s: %w", op, id, err)
	}
	tmp, err := os.CreateTemp(f.dir, "."+id+suffix+"-*.tmp")
	if err != nil {
		return fail(err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	var cerr error
	if !keep {
		cerr = tmp.Close()
	}
	if err := errors.Join(werr, serr, cerr); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(f.dir, id+suffix)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fail(err)
	}
	// The temp file's CONTENT is durable (tmp.Sync above), but the
	// rename lives in the parent directory's entries: without syncing
	// the directory a power loss can forget the rename and resurface
	// the previous file — or nothing.
	if err := syncDir(f.dir); err != nil {
		tmp.Close()
		return fail(err)
	}
	if !keep {
		return nil, nil
	}
	return tmp, nil
}

// syncDir fsyncs a directory's entry table.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return errors.Join(serr, cerr)
}

// fileBufs pools the whole-file read buffers of Load and saveInPlace,
// so a load allocates only the payload it returns and an in-place save
// nothing for its read.
var fileBufs = sync.Pool{New: func() any { return new([]byte) }}

// readFileBuf reads h whole into a buffer from fileBufs, which the
// caller returns there once nothing references the bytes. A file that
// shrinks under the read yields what was read.
func readFileBuf(h *os.File) (*[]byte, error) {
	st, err := h.Stat()
	if err != nil {
		return nil, err
	}
	bp := fileBufs.Get().(*[]byte)
	if size := int(st.Size()); cap(*bp) < size {
		*bp = make([]byte, size)
	} else {
		*bp = (*bp)[:size]
	}
	n, err := h.ReadAt(*bp, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		fileBufs.Put(bp)
		return nil, err
	}
	*bp = (*bp)[:n]
	return bp, nil
}

// Load implements Store with one read of `<id>.json`: the newest
// region of a two-region file that verifies. Anything else, the
// plain-JSON file of a store that predates the two-region layout
// included, is ErrSnapshotCorrupt. The file is read into a pooled
// buffer and the snapshot copied out, so the result holds the payload
// alone.
func (f *FileStore) Load(id string) ([]byte, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	h, err := os.Open(f.path(id))
	if err != nil {
		return nil, fmt.Errorf("server: load %s: %w", id, err)
	}
	defer h.Close()
	bp, err := readFileBuf(h)
	if err != nil {
		return nil, fmt.Errorf("server: load %s: %w", id, err)
	}
	defer fileBufs.Put(bp)
	sf, ok := parseSnapFile(*bp)
	if !ok {
		return nil, fmt.Errorf("%w: %s: not a two-region file", ErrSnapshotCorrupt, id)
	}
	n := sf.newest()
	if n < 0 {
		return nil, fmt.Errorf("%w: %s: no region verifies", ErrSnapshotCorrupt, id)
	}
	return bytes.Clone(sf.payload[n]), nil
}

// Delete implements Store. The removal is fsynced for the same
// reason replace fsyncs a rename: a deleted job must not resurrect
// after a power loss. The job's lease record and any leftover lease
// lock go with it — a deleted job has no ownership to dispute.
func (f *FileStore) Delete(id string) error {
	if err := checkID(id); err != nil {
		return err
	}
	os.Remove(f.leasePath(id))
	os.Remove(f.lockPath(id))
	if err := os.Remove(f.path(id)); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("server: delete %s: %w", id, err)
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("server: delete %s: %w", id, err)
	}
	return nil
}

// List implements Store. Only entries that look like snapshots this
// store could have written survive the listing: foreign and partial
// files — a leftover `*.tmp` from a crashed atomic rename or lease
// write, lease records and lock files (`*.lease`, `*.lease.lock`,
// orphaned or not), editor droppings, a directory someone created in
// the state dir, a name that would never pass checkID — are skipped
// rather than surfaced as job ids that LoadAll would then fail to
// load.
func (f *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("server: list snapshots: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if checkID(id) != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

var _ Store = (*FileStore)(nil)
