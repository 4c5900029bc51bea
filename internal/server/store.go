package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Store persists job snapshots across broker restarts. Implementations
// must make Save atomic: a crash mid-save leaves either the previous
// snapshot or the new one, never a torn file.
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
// snapshot per job, replaced atomically (see replace) so readers and
// crash recovery never observe a partial snapshot. Multi-node
// deployments also keep a `<id>.json.lease` ownership record next to
// each snapshot (lease.go), and WALStore embeds a FileStore to add a
// `<id>.wal` round log beside both. Its Now is the one clock every
// lease and ownership decision reads.
type FileStore struct {
	dir string

	// Now, when set, replaces wall time in every lease expiry and
	// ownership decision — the injection point the clock-skew and
	// failover tests use. Set it before the store is shared; nil means
	// time.Now.
	Now func() time.Time

	// The lease protocol's counters, reported by LeaseStats.
	leaseAcquired, leaseStolen, leaseFenced, leaseCorrupt, leaseSwept atomic.Uint64
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

// Dir returns the backing directory.
func (f *FileStore) Dir() string { return f.dir }

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

// Save implements Store with replace's write-to-temp + atomic rename.
func (f *FileStore) Save(id string, data []byte) error {
	if err := checkID(id); err != nil {
		return err
	}
	_, err := f.replace("save", id, ".json", data, false)
	return err
}

// replace is the one durable-replace path for every file the store
// writes (snapshot, lease record, WAL segment header): the bytes go to
// a hidden temp file that is fsynced and closed, renamed over
// `<id><suffix>`, and the directory is fsynced, so a crash leaves
// either the old file or the new one — never a torn one — and the
// rename itself survives a power loss. A failure before the rename
// removes the temp file. With keep, the temp file is not closed: its still-open handle,
// now naming the replaced file, is returned for further appends (the
// WAL segment's); otherwise the result is nil. op prefixes errors.
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

// Load implements Store.
func (f *FileStore) Load(id string) ([]byte, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.path(id))
	if err != nil {
		return nil, fmt.Errorf("server: load %s: %w", id, err)
	}
	return data, nil
}

// Delete implements Store. The removal is fsynced for the same
// reason Save fsyncs the rename: a deleted job must not resurrect
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
