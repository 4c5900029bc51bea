// WAL segments: the line-delimited JSON journal reused as the broker's
// per-job write-ahead round log. A segment is one file — a header line
// naming the schema, the job, and the base round (the 1-based index of
// the first round the segment may hold, i.e. the snapshot it extends),
// followed by one entry line per round in the same short-field format
// the audit journal uses.
//
// Unlike the audit journal, a segment is written incrementally by a
// live process and read back after a crash, so the reader tolerates
// exactly one torn write: a final line that is incomplete (no
// trailing newline) or undecodable is DISCARDED and reported, never an
// error. Anything torn before the final line is real corruption and
// fails the read.
package roundlog

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cmabhs/internal/core"
)

// SegmentSchema names the WAL-segment flavor of the journal in its
// header line, distinguishing a segment from an audit journal.
const SegmentSchema = "cdt-wal"

// SegmentVersion identifies the segment schema.
const SegmentVersion = 1

// segmentHeader is the first line of every WAL segment. Epoch is the
// lease epoch of the broker node that opened the segment; 0 (omitted,
// keeping single-node headers byte-identical to the pre-lease format)
// means the segment was opened outside any ownership protocol.
type segmentHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Job     string `json:"job"`
	Base    int    `json:"base"`            // 1-based round index the segment starts at
	Epoch   int64  `json:"epoch,omitempty"` // lease epoch of the writer, 0 when unowned
}

// EncodeSegmentHeader renders the header line (newline-terminated) for
// a segment holding rounds base, base+1, ... of job, stamped with the
// writer's lease epoch (0 when unowned, and then omitted). A
// recovering node compares the stamp against its own lease: a segment
// from a HIGHER epoch means another owner already advanced past this
// node's view of the job, so resuming from it would fork history.
func EncodeSegmentHeader(job string, base int, epoch int64) ([]byte, error) {
	data, err := json.Marshal(segmentHeader{
		Schema: SegmentSchema, Version: SegmentVersion, Job: job, Base: base, Epoch: epoch,
	})
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// EncodeSegmentRecords renders round records as entry lines ready to
// append to a segment. Each line is newline-terminated; a crash mid
// write tears at most the final line, which ReadSegment discards.
func EncodeSegmentRecords(recs []core.RoundRecord) ([]byte, error) {
	var buf []byte
	for i := range recs {
		var err error
		if buf, err = AppendSegmentRecord(buf, &recs[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// AppendSegmentRecord renders one round record as a newline-terminated
// entry line and appends it to dst, returning the extended buffer. It
// only READS the record, so callers holding a borrowed record (the
// mechanism's pooled per-round storage) can encode it in place instead
// of deep-copying rounds they never retain; bytes produced are
// identical to EncodeSegmentRecords.
func AppendSegmentRecord(dst []byte, rec *core.RoundRecord) ([]byte, error) {
	line, err := json.Marshal(newEntry(rec))
	if err != nil {
		return dst, err
	}
	dst = append(dst, line...)
	return append(dst, '\n'), nil
}

// Segment is a decoded WAL segment.
type Segment struct {
	Job   string // job id from the header
	Base  int    // first round the segment may hold
	Epoch int64  // lease epoch of the node that opened it (0: unowned)
	// Rounds are the decoded records in append order.
	Rounds []core.RoundRecord
	// Torn reports that the final line was incomplete or undecodable
	// — the signature of a crash mid-append — and was discarded.
	Torn bool
}

// ReadSegment decodes a whole segment from its raw bytes, discarding a
// torn final line. An empty or header-less file, a wrong schema, or an
// undecodable line anywhere but last is an error.
func ReadSegment(data []byte) (*Segment, error) {
	lines, torn := splitTorn(data)
	if len(lines) == 0 {
		return nil, ErrBadHeader
	}
	var h segmentHeader
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Schema != SegmentSchema {
		return nil, ErrBadHeader
	}
	if h.Version != SegmentVersion {
		return nil, fmt.Errorf("%w (%d)", ErrVersion, h.Version)
	}
	seg := &Segment{Job: h.Job, Base: h.Base, Epoch: h.Epoch, Torn: torn}
	for i, ln := range lines[1:] {
		if len(ln) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(ln, &e); err != nil {
			if i == len(lines)-2 {
				// Undecodable final line: a torn write that happened to
				// end in a newline. Discard it like any other torn tail.
				seg.Torn = true
				break
			}
			return nil, fmt.Errorf("roundlog: segment line %d: %w", i+2, err)
		}
		seg.Rounds = append(seg.Rounds, e.record())
	}
	return seg, nil
}

// splitTorn splits data into newline-terminated lines. A final chunk
// with no terminating newline is a torn write: it is dropped and
// reported rather than returned.
func splitTorn(data []byte) (lines [][]byte, torn bool) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return lines, true
		}
		lines = append(lines, data[:i])
		data = data[i+1:]
	}
	return lines, false
}
