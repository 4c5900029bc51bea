package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmabhs"
	"cmabhs/internal/tracing"
)

// FuzzSnapshotFile writes arbitrary bytes as `<id>.json`. Load must
// not panic: a file without the cdt-snap header, plain JSON included,
// is refused with ErrSnapshotCorrupt; anything else loads as the
// payload of a region whose CRC-32C verifies (checked here against the
// file's bytes, not through the store's parser) or is refused with
// ErrSnapshotCorrupt. A save over the file then loads back exactly.
func FuzzSnapshotFile(f *testing.F) {
	one := newSnapFile(3, []byte(`{"a":1}`))
	region := (len(one) - snapPage) / 2
	two := append([]byte(nil), one...)
	putRegion(two[snapPage+region:], 4, []byte(`{"a":2}`))
	torn := append([]byte(nil), two...)
	torn[snapPage+region+regionHeaderSize] ^= 1
	for _, seed := range [][]byte{one, two, torn, one[:snapPage], []byte(`{"version":1}`), nil, []byte(snapMagic)} {
		f.Add(seed)
	}
	fs, err := NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const id = "job-1"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(fs.path(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := fs.Load(id)
		switch {
		case !bytes.HasPrefix(data, []byte(snapMagic)) && !errors.Is(err, ErrSnapshotCorrupt):
			t.Fatalf("file without the %s header: load error %v, want ErrSnapshotCorrupt", snapMagic, err)
		case err != nil:
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("load refused with an untyped error: %v", err)
			}
		case !verifiedPayload(data, got):
			t.Fatalf("load returned %d bytes that are no verified region's payload", len(got))
		}
		saved := append([]byte("saved:"), data...)
		if err := fs.Save(id, saved); err != nil {
			t.Fatal(err)
		}
		if got, err := fs.Load(id); err != nil || !bytes.Equal(got, saved) {
			t.Fatalf("load after save: %d bytes, err %v", len(got), err)
		}
	})
}

// verifiedPayload reports whether p is the payload of a region of file
// whose magic, length and CRC-32C hold.
func verifiedPayload(file, p []byte) bool {
	if len(file) < snapHeaderSize {
		return false
	}
	r := int(binary.LittleEndian.Uint32(file[12:]))
	for i := 0; i < 2; i++ {
		off := snapPage + i*r
		if r < regionHeaderSize || off+r > len(file) || string(file[off:off+4]) != regionMagic {
			continue
		}
		n := int(binary.LittleEndian.Uint32(file[off+12:]))
		if n > r-regionHeaderSize {
			continue
		}
		body := file[off+regionHeaderSize : off+regionHeaderSize+n]
		sum := crc32.Checksum(append(append([]byte(nil), file[off+4:off+16]...), body...), crc32.MakeTable(crc32.Castagnoli))
		if sum == binary.LittleEndian.Uint32(file[off+16:]) && bytes.Equal(body, p) {
			return true
		}
	}
	return false
}

// FuzzLoadLease feeds arbitrary bytes to the lease-record reader that
// every ownership decision trusts. It must never panic or error on a
// readable file; it either rejects the record as corrupt (counted, and
// a fresh acquire then starts at epoch 1) or returns a record that is
// valid for the job, survives the store's own writer bit for bit, and
// is honoured by the next acquire: renewed in place by its owner, held
// against others until it expires, and stolen only at a higher epoch.
func FuzzLoadLease(f *testing.F) {
	for _, seed := range []string{
		`{"job":"job-1","owner":"a","epoch":1,"expiry_unix_nano":1700000010000000000}`,
		`{"job":"job-1","owner":"fz","epoch":7,"expiry_unix_nano":1700000010000000000}`,
		`{"job":"job-1","owner":"a","epoch":4,"expiry_unix_nano":1}`,
		`{"job":"job-1","owner":"a","epoch":-5,"expiry_unix_nano":0}`,
		`{"job":"job-1","owner":"a","epoch":9223372036854775807,"expiry_unix_nano":1}`,
		`{"job":"job-2","owner":"a","epoch":3}`,
		`{"job":"job-1","owner":"bad id","epoch":2}`,
		`{"job":"job-1","owner":"a","epoch":1.5}`,
		`{torn`, ``, `null`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	fs, err := NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	clk := newFakeClock()
	fs.Now = clk.Now
	const id, me = "job-1", "fz"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(fs.leasePath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := fs.LeaseStats().Corrupt
		l, err := fs.LoadLease(id)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		corrupt := fs.LeaseStats().Corrupt - before
		if l == nil {
			if corrupt != 1 {
				t.Fatalf("rejected record counted %d times, want 1", corrupt)
			}
			if got, err := fs.AcquireLease(id, me, time.Second); err != nil || got.Epoch != 1 {
				t.Fatalf("acquire over a rejected record: %+v err=%v", got, err)
			}
			return
		}
		if corrupt != 0 {
			t.Fatalf("accepted record %+v counted as corrupt", *l)
		}
		if l.Job != id || checkID(l.Owner) != nil || l.Epoch < 1 {
			t.Fatalf("accepted an invalid record: %+v", *l)
		}
		if err := fs.writeLeaseLocked(id, *l); err != nil {
			t.Fatal(err)
		}
		if again, err := fs.LoadLease(id); err != nil || again == nil || *again != *l {
			t.Fatalf("record %+v re-read as %+v (err %v)", *l, again, err)
		}
		got, err := fs.AcquireLease(id, me, time.Second)
		expired := l.Expired(clk.Now(), leaseGrace)
		switch {
		case errors.Is(err, ErrLeaseHeld):
			if l.Owner == me || expired {
				t.Fatalf("acquire refused over %+v: %v", *l, err)
			}
		case err != nil:
			t.Fatalf("acquire over %+v: %v", *l, err)
		case l.Owner == me:
			if got.Epoch != l.Epoch {
				t.Fatalf("owner's re-acquire moved the epoch: %+v -> %+v", *l, got)
			}
		case !expired || got.Epoch <= l.Epoch:
			t.Fatalf("acquire over %+v granted %+v", *l, got)
		}
	})
}

// FuzzJobRequestConfig feeds arbitrary JSON to the create path's
// request decoding, JobRequest.config and cmabhs.NewSession, as
// handleCreateJob runs them. It must never panic, and it either
// refuses the request or builds a session no larger than maxMarket
// sellers and PoIs, and no larger than maxCollectData sellers × PoIs
// with the data layer on, so no wire value sizes an allocation
// unbounded.
func FuzzJobRequestConfig(f *testing.F) {
	for _, seed := range []string{
		`{"random_sellers":6,"k":2,"rounds":20,"seed":1}`,
		`{"random_sellers":2000000000,"k":1,"rounds":1}`,
		`{"random_sellers":10000,"k":3,"pois":10000,"rounds":1}`,
		`{"sellers":[{"a":0.2,"b":0.1,"q":0.9},{"a":0.3,"b":0.2,"q":0.5}],"k":1,"rounds":5,"pois":-3}`,
		`{"random_sellers":8,"k":2,"rounds":50,"policy":"sw-ucb","solver":"exact","budget":3}`,
		`{"random_sellers":8,"k":2,"rounds":50,"faults":{"churn":{"rate":0.5,"min_round":-1},` +
			`"byzantine":{"sellers":[-1,99],"mode":"random","inflation":2},"straggler":{"prob":1,"deadline":-1}}}`,
		`{"random_sellers":5,"k":9,"rounds":1,"theta":1e-300,"omega":1,"pj_max":-1}`,
		`{"sellers":[],"k":0}`, `null`, `[]`, `{`,
		`{"random_sellers":10000,"k":3,"pois":11,"rounds":1,"collect_data":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		cfg, err := req.config()
		if err != nil || req.K <= 0 || req.Rounds <= 0 {
			return
		}
		sess, err := cmabhs.NewSession(cfg)
		if err != nil {
			return
		}
		if c := sess.Config(); len(c.Sellers) > maxMarket || c.PoIs > maxMarket {
			t.Fatalf("built a session with %d sellers and %d pois, limit %d", len(c.Sellers), c.PoIs, maxMarket)
		}
		if c := sess.Config(); c.CollectData && len(c.Sellers)*c.PoIs > maxCollectData {
			t.Fatalf("built a collect_data session with %d sellers × %d pois, limit %d", len(c.Sellers), c.PoIs, maxCollectData)
		}
	})
}

// FuzzSeriesQuery drives GET /v1/jobs/{id}/series with arbitrary
// metric, since and max_points values. Every request is a 200 or a
// 400, never a panic (which the recovery middleware would turn into a
// 500), and a 200 holds at most max_points points when max_points is
// positive.
func FuzzSeriesQuery(f *testing.F) {
	for _, seed := range [][3]string{
		{"regret", "", ""},
		{"revenue", "100", "10"},
		{"no_trade", "0", "1"},
		{"failed", "2999", "0"},
		{"spend", "-1", ""},
		{"bogus", "", ""},
		{"", "99999999999999999999", "3"},
		{"regret", "1e3", "0x10"},
		{"regret", "", "9223372036854775807"},
		{"%zz\x00", " 7", "+5"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	lg, err := tracing.NewLogger(io.Discard, "text", "info")
	if err != nil {
		f.Fatal(err)
	}
	srv := New()
	srv.Logger = lg
	h := srv.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	rec := serve(http.MethodPost, "/v1/jobs", `{"random_sellers":10,"k":3,"rounds":3000,"seed":1}`)
	var st JobStatus
	if rec.Code != http.StatusCreated {
		f.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		f.Fatal(err)
	}
	if rec := serve(http.MethodPost, "/v1/jobs/"+st.ID+"/advance", `{"rounds":3000}`); rec.Code != http.StatusOK {
		f.Fatalf("advance: %d %s", rec.Code, rec.Body)
	}
	f.Fuzz(func(t *testing.T, metric, since, maxPoints string) {
		q := url.Values{"metric": {metric}, "since": {since}, "max_points": {maxPoints}}
		rec := serve(http.MethodGet, "/v1/jobs/"+st.ID+"/series?"+q.Encode(), "")
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("metric=%q since=%q max_points=%q: status %d %s", metric, since, maxPoints, rec.Code, rec.Body)
		}
		var resp SeriesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable 200 body: %v\n%s", err, rec.Body)
		}
		if n, err := strconv.Atoi(maxPoints); err == nil && n > 0 && len(resp.Points) > n {
			t.Fatalf("max_points=%d returned %d points", n, len(resp.Points))
		}
	})
}
