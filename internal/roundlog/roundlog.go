// Package roundlog implements the durable trade log of a CDT market:
// an append-only, line-delimited JSON journal of per-round records,
// with a schema header and a reader. The log is the audit trail — any
// party can re-derive revenues, profits, and payments from it and
// check them against the reported result.
package roundlog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"cmabhs/internal/core"
	"cmabhs/internal/numutil"
)

// Version identifies the journal schema.
const Version = 1

// header is the first line of every journal.
type header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Policy  string `json:"policy,omitempty"`
}

// entry is one journaled round. Field names are kept short: a 1e5
// round journal is written once per run.
type entry struct {
	T   int       `json:"t"`
	Sel []int     `json:"sel"`
	PJ  float64   `json:"pj"`
	P   float64   `json:"p"`
	Tau []float64 `json:"tau"`
	PoC float64   `json:"poc"`
	PoP float64   `json:"pop"`
	PoS []float64 `json:"pos"`
	NT  bool      `json:"nt,omitempty"`
	Rev float64   `json:"rev"`
}

// Writer appends rounds to a journal.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter starts a journal on w with the schema header.
func NewWriter(w io.Writer, policy string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Schema: "cdt-roundlog", Version: Version, Policy: policy}); err != nil {
		return nil, err
	}
	return &Writer{w: bw, enc: enc}, nil
}

// newEntry converts a round record to its journal line form.
func newEntry(rec *core.RoundRecord) entry {
	return entry{
		T:   rec.Round,
		Sel: rec.Selected,
		PJ:  rec.PJ,
		P:   rec.P,
		Tau: rec.Taus,
		PoC: rec.PoC,
		PoP: rec.PoP,
		PoS: rec.SellerProfits,
		NT:  rec.NoTrade,
		Rev: rec.Realized,
	}
}

// record converts a journal line back to a round record. TotalTau is
// recomputed from the sensing times; AggRMSE is not journaled (NaN).
func (e *entry) record() core.RoundRecord {
	return core.RoundRecord{
		Round:         e.T,
		Selected:      e.Sel,
		PJ:            e.PJ,
		P:             e.P,
		Taus:          e.Tau,
		PoC:           e.PoC,
		PoP:           e.PoP,
		SellerProfits: e.PoS,
		NoTrade:       e.NT,
		Realized:      e.Rev,
		TotalTau:      numutil.SumSlice(e.Tau),
		AggRMSE:       math.NaN(),
	}
}

// Append journals one round record.
func (w *Writer) Append(rec *core.RoundRecord) error {
	return w.enc.Encode(newEntry(rec))
}

// Flush writes any buffered entries through to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Errors returned by Read.
var (
	ErrBadHeader = errors.New("roundlog: missing or invalid journal header")
	ErrVersion   = errors.New("roundlog: unsupported journal version")
)

// Read parses a whole journal, returning the policy name and the
// rounds in order.
func Read(r io.Reader) (policy string, rounds []core.RoundRecord, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", nil, err
		}
		return "", nil, ErrBadHeader
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Schema != "cdt-roundlog" {
		return "", nil, ErrBadHeader
	}
	if h.Version != Version {
		return "", nil, fmt.Errorf("%w (%d)", ErrVersion, h.Version)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return "", nil, fmt.Errorf("roundlog: line %d: %w", line, err)
		}
		rounds = append(rounds, e.record())
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	return h.Policy, rounds, nil
}
