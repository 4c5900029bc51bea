package roundlog

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"cmabhs/internal/core"
)

func segRecords(n, base int) []core.RoundRecord {
	recs := make([]core.RoundRecord, n)
	for i := range recs {
		recs[i] = core.RoundRecord{
			Round:         base + i,
			Selected:      []int{i, i + 1},
			PJ:            1.5 + float64(i),
			P:             0.25 * float64(i+1),
			Taus:          []float64{0.5, 1.25},
			TotalTau:      1.75,
			PoC:           10 + float64(i),
			PoP:           5 - float64(i),
			SellerProfits: []float64{0.1, 0.2},
			NoTrade:       i%3 == 0,
			Realized:      float64(i) * 1.125,
		}
	}
	return recs
}

func buildSegment(t *testing.T, job string, base int, recs []core.RoundRecord) []byte {
	t.Helper()
	hdr, err := EncodeSegmentHeader(job, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeSegmentRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	return append(hdr, body...)
}

func TestSegmentRoundTrip(t *testing.T) {
	recs := segRecords(5, 7)
	data := buildSegment(t, "job-3", 7, recs)

	seg, err := ReadSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Job != "job-3" || seg.Base != 7 || seg.Torn {
		t.Fatalf("header round-trip: %+v", seg)
	}
	if len(seg.Rounds) != len(recs) {
		t.Fatalf("got %d rounds, want %d", len(seg.Rounds), len(recs))
	}
	for i, got := range seg.Rounds {
		want := recs[i]
		if got.Round != want.Round || got.PJ != want.PJ || got.P != want.P ||
			got.PoC != want.PoC || got.PoP != want.PoP || got.Realized != want.Realized ||
			got.NoTrade != want.NoTrade {
			t.Errorf("round %d: got %+v want %+v", i, got, want)
		}
		if !math.IsNaN(got.AggRMSE) {
			t.Errorf("round %d: AggRMSE should be NaN after decode, got %v", i, got.AggRMSE)
		}
	}
}

func TestSegmentEmpty(t *testing.T) {
	data := buildSegment(t, "job-1", 1, nil)
	seg, err := ReadSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Rounds) != 0 || seg.Torn || seg.Base != 1 {
		t.Fatalf("empty segment: %+v", seg)
	}
}

// A crash mid-append leaves a final line with no terminating newline:
// it must be discarded and reported, and every preceding line kept.
func TestSegmentTornTailNoNewline(t *testing.T) {
	recs := segRecords(4, 1)
	data := buildSegment(t, "job-1", 1, recs)
	for cut := 1; cut < 40; cut += 7 {
		torn := data[:len(data)-cut]
		seg, err := ReadSegment(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !seg.Torn {
			t.Fatalf("cut %d: tear not reported", cut)
		}
		if len(seg.Rounds) != 3 {
			t.Fatalf("cut %d: kept %d rounds, want 3", cut, len(seg.Rounds))
		}
	}
}

// A torn write that happens to end at a newline (e.g. garbage bytes
// flushed before the crash) shows up as an undecodable final line —
// discarded the same way.
func TestSegmentTornTailBadJSONLine(t *testing.T) {
	data := buildSegment(t, "job-1", 1, segRecords(2, 1))
	data = append(data, []byte("{\"t\":3,\"sel\":[1\n")...)
	seg, err := ReadSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Torn || len(seg.Rounds) != 2 {
		t.Fatalf("torn=%v rounds=%d, want torn with 2 rounds", seg.Torn, len(seg.Rounds))
	}
}

// Corruption anywhere except the final line is NOT a torn tail — it
// means lost history, and the read must fail instead of silently
// truncating the log.
func TestSegmentMidFileCorruptionFails(t *testing.T) {
	recs := segRecords(3, 1)
	hdr, _ := EncodeSegmentHeader("job-1", 1, 0)
	line1, _ := EncodeSegmentRecords(recs[:1])
	line3, _ := EncodeSegmentRecords(recs[2:])
	data := append(hdr, line1...)
	data = append(data, []byte("not json\n")...)
	data = append(data, line3...)
	if _, err := ReadSegment(data); err == nil {
		t.Fatal("mid-file corruption read back without error")
	}
}

func TestSegmentHeaderErrors(t *testing.T) {
	if _, err := ReadSegment(nil); !errors.Is(err, ErrBadHeader) {
		t.Errorf("empty file: %v", err)
	}
	if _, err := ReadSegment([]byte("{\"schema\":\"cdt-roundlog\",\"version\":1}\n")); !errors.Is(err, ErrBadHeader) {
		t.Errorf("audit-journal header accepted as segment: %v", err)
	}
	if _, err := ReadSegment([]byte("{\"schema\":\"cdt-wal\",\"version\":99,\"job\":\"j\",\"base\":1}\n")); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: %v", err)
	}
	// A header-only file whose single line is torn has no header yet.
	hdr, _ := EncodeSegmentHeader("job-1", 1, 0)
	if _, err := ReadSegment(bytes.TrimSuffix(hdr, []byte("\n"))); !errors.Is(err, ErrBadHeader) {
		t.Errorf("torn header: %v", err)
	}
}

// TestAppendSegmentRecordIncremental: encoding one record at a time
// into a shared buffer — the broker observer's zero-copy WAL feed —
// must produce the exact bytes of the batch encoder and must leave the
// borrowed record's slices untouched.
func TestAppendSegmentRecordIncremental(t *testing.T) {
	recs := segRecords(6, 3)
	batch, err := EncodeSegmentRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	var incr []byte
	for i := range recs {
		selBefore := append([]int(nil), recs[i].Selected...)
		if incr, err = AppendSegmentRecord(incr, &recs[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(intsAsBytes(selBefore), intsAsBytes(recs[i].Selected)) {
			t.Fatalf("record %d mutated by encoder", i)
		}
	}
	if !bytes.Equal(batch, incr) {
		t.Fatalf("incremental encoding diverged from batch:\n%s\nvs\n%s", incr, batch)
	}
}

func intsAsBytes(xs []int) []byte {
	out := make([]byte, 0, len(xs))
	for _, x := range xs {
		out = append(out, byte(x))
	}
	return out
}

// The lease epoch stamped by a clustered broker must round-trip, and
// epoch 0 must be omitted, so an unclustered broker's header keeps the
// bytes it had before leases existed.
func TestSegmentEpochRoundTrip(t *testing.T) {
	hdr, err := EncodeSegmentHeader("job-a-1", 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ReadSegment(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Job != "job-a-1" || seg.Base != 9 || seg.Epoch != 3 {
		t.Fatalf("epoch header round-trip: %+v", seg)
	}

	zero, err := EncodeSegmentHeader("job-1", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"schema":"cdt-wal","version":1,"job":"job-1","base":4}` + "\n"; string(zero) != want {
		t.Fatalf("epoch-0 header %q, want %q", zero, want)
	}
	if seg, err := ReadSegment(zero); err != nil || seg.Epoch != 0 {
		t.Fatalf("epoch-0 header read: %+v err=%v", seg, err)
	}
}

// FuzzReadSegment: recovery hands ReadSegment whatever bytes a crash
// left on disk. It must return a segment or an error, never panic, and
// whatever it decodes must survive a write–read cycle unchanged: the
// header re-encodes to the same job, base and epoch, and the rounds
// re-encode through AppendSegmentRecord to bytes that read back to the
// same rounds.
func FuzzReadSegment(f *testing.F) {
	recs := segRecords(3, 5)
	hdr, err := EncodeSegmentHeader("job-7", 5, 2)
	if err != nil {
		f.Fatal(err)
	}
	var body []byte
	for i := range recs {
		if body, err = AppendSegmentRecord(body, &recs[i]); err != nil {
			f.Fatal(err)
		}
	}
	full := append(append([]byte(nil), hdr...), body...)
	f.Add(full)
	f.Add(full[:len(full)-7]) // torn tail
	f.Add(hdr)
	f.Add(append(append([]byte(nil), hdr...), "{\"t\":1,\"sel\":[0]}\n{bad\n"...))
	f.Add([]byte(`{"schema":"cdt-wal","version":2,"job":"j","base":1}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte{})

	encode := func(t *testing.T, seg *Segment) []byte {
		t.Helper()
		out, err := EncodeSegmentHeader(seg.Job, seg.Base, seg.Epoch)
		if err != nil {
			t.Fatalf("re-encode header %+v: %v", seg, err)
		}
		for i := range seg.Rounds {
			if out, err = AppendSegmentRecord(out, &seg.Rounds[i]); err != nil {
				t.Fatalf("re-encode round %d: %v", i, err)
			}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := ReadSegment(data)
		if err != nil {
			if seg != nil {
				t.Fatalf("error %v with a non-nil segment", err)
			}
			return
		}
		if seg == nil {
			t.Fatal("nil segment without an error")
		}
		written := encode(t, seg)
		again, err := ReadSegment(written)
		if err != nil {
			t.Fatalf("re-read of written segment: %v\n%s", err, written)
		}
		if again.Torn || again.Job != seg.Job || again.Base != seg.Base || again.Epoch != seg.Epoch || len(again.Rounds) != len(seg.Rounds) {
			t.Fatalf("segment changed across a write–read cycle: %+v vs %+v", again, seg)
		}
		if rewritten := encode(t, again); !bytes.Equal(rewritten, written) {
			t.Fatalf("round bytes changed across a write–read cycle:\n%s\n%s", written, rewritten)
		}
	})
}
