package tracing

import (
	"sync"
	"time"
)

// DefaultCapacity is the trace count a Store keeps when the caller
// passes no explicit capacity.
const DefaultCapacity = 256

// DefaultMaxSpansPerTrace bounds the spans kept per trace; past it,
// new spans are counted as dropped instead of stored, so one
// 100k-round advance cannot flood the buffer.
const DefaultMaxSpansPerTrace = 512

// Store is a bounded in-memory buffer of finished spans grouped by
// trace: when a span arrives for an unseen trace and the buffer is at
// capacity, the oldest trace (by first-seen order — a FIFO ring) is
// evicted whole. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	order    []TraceID // oldest first
	traces   map[TraceID]*traceEntry

	evicted      uint64 // traces evicted by the ring
	droppedSpans uint64 // spans dropped by the per-trace cap
}

// traceEntry holds one trace's finished spans, frozen, in finish
// order. Their wire form is rendered only when the store is read.
type traceEntry struct {
	first   time.Time
	spans   []*Span
	dropped int
}

// NewStore returns a store keeping the last capacity traces
// (capacity <= 0 means DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		traces:   make(map[TraceID]*traceEntry, capacity),
	}
}

// add records one finished span, evicting the oldest trace if the
// ring is full.
func (s *Store) add(sp *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[sp.trace]
	if !ok {
		if len(s.order) >= s.capacity {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.traces, oldest)
			s.evicted++
		}
		e = &traceEntry{first: sp.start}
		s.traces[sp.trace] = e
		s.order = append(s.order, sp.trace)
	}
	if len(e.spans) >= DefaultMaxSpansPerTrace {
		e.dropped++
		s.droppedSpans++
		return
	}
	if sp.start.Before(e.first) {
		e.first = sp.start
	}
	e.spans = append(e.spans, sp)
}

// Evicted returns how many traces the ring has evicted so far.
func (s *Store) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// DroppedSpans returns how many spans the per-trace cap has dropped.
func (s *Store) DroppedSpans() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.droppedSpans
}

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Name is the root span's name (the span without a parent; the
	// first recorded span when the root was evicted or still open).
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration_s"`
	Spans    int       `json:"spans"`
	Dropped  int       `json:"dropped_spans,omitempty"`
}

// Traces lists the stored traces, newest first.
func (s *Store) Traces() []TraceSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		e := s.traces[id]
		sum := TraceSummary{
			TraceID: id.String(),
			Start:   e.first,
			Spans:   len(e.spans),
			Dropped: e.dropped,
		}
		if len(e.spans) > 0 {
			root := e.spans[0]
			for _, sp := range e.spans {
				if sp.parent.IsZero() {
					root = sp
					break
				}
			}
			sum.Name = root.name
			sum.Duration = root.dur.Seconds()
		}
		out = append(out, sum)
	}
	return out
}

// TraceDetail is the full span list of one trace, in recorded
// (finish) order — children end before their parent, so the root is
// typically last.
type TraceDetail struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
	Dropped int        `json:"dropped_spans,omitempty"`
}

// Trace returns the spans of one trace by its canonical id: 32
// lowercase hex characters, as TraceID.String renders it.
func (s *Store) Trace(id string) (TraceDetail, bool) {
	var tid TraceID
	if !decodeLowerHex(tid[:], id) {
		return TraceDetail{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[tid]
	if !ok {
		return TraceDetail{}, false
	}
	spans := make([]SpanData, len(e.spans))
	for i, sp := range e.spans {
		spans[i] = sp.data()
	}
	return TraceDetail{TraceID: id, Spans: spans, Dropped: e.dropped}, true
}
