// Package tracing is the dependency-free distributed-tracing core of
// the CDT stack: spans carrying W3C trace-context compatible ids,
// context propagation (including ingest of a remote `traceparent`
// parent), and a bounded in-memory ring-buffer store served over HTTP
// by Handler — enough to answer "what happened to THIS request / THIS
// round?" without pulling an OpenTelemetry dependency tree into a
// reproduction repository.
//
// The design mirrors internal/metrics: recording never blocks request
// handling beyond a short mutex, everything is bounded (the store
// evicts whole traces FIFO and caps spans per trace), and ids come
// from the same splitmix64 generator quality as internal/rng — but
// from a dedicated operational stream, deliberately separate from the
// simulation's seeded streams so tracing can never perturb a run.
//
// Spans are strictly passive observers: a Span records names, times,
// attributes, and events, and nothing in this package feeds back into
// the caller. Attaching tracing to a mechanism run is bit-identical
// to not attaching it (asserted by the chaos harness).
package tracing

import (
	"context"
	"encoding/hex"
	"sync"
	"time"

	"cmabhs/internal/rng"
)

// TraceID is a 16-byte W3C trace-context trace id.
type TraceID [16]byte

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is an 8-byte W3C trace-context span id.
type SpanID [8]byte

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// Tracer creates spans and records the finished ones into its Store.
// A nil *Tracer is valid and inert: StartSpan returns a nil span whose
// methods all no-op, so call sites never branch on "tracing enabled".
type Tracer struct {
	store *Store

	mu  sync.Mutex
	src *rng.Source
}

// New returns a Tracer whose store keeps the last capacity traces
// (capacity <= 0 means DefaultCapacity). Ids are seeded from the wall
// clock — operational randomness, never the simulation streams.
func New(capacity int) *Tracer {
	return NewSeeded(time.Now().UnixNano(), capacity)
}

// NewSeeded is New with a fixed id seed, for deterministic tests.
func NewSeeded(seed int64, capacity int) *Tracer {
	return &Tracer{store: NewStore(capacity), src: rng.New(seed)}
}

// Store returns the tracer's trace store (never nil on a non-nil
// tracer).
func (t *Tracer) Store() *Store { return t.store }

func (t *Tracer) rand64() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.src.Uint64()
}

// NewTraceID draws a fresh non-zero trace id.
func (t *Tracer) NewTraceID() TraceID {
	for {
		var id TraceID
		putUint64(id[:8], t.rand64())
		putUint64(id[8:], t.rand64())
		if !id.IsZero() {
			return id
		}
	}
}

// NewSpanID draws a fresh non-zero span id.
func (t *Tracer) NewSpanID() SpanID {
	for {
		var id SpanID
		putUint64(id[:], t.rand64())
		if !id.IsZero() {
			return id
		}
	}
}

// NewRequestID draws a 16-hex-character id suitable for X-Request-ID
// generation — same generator quality as span ids, shorter on the
// wire.
func (t *Tracer) NewRequestID() string {
	var b [8]byte
	putUint64(b[:], t.rand64())
	return hex.EncodeToString(b[:])
}

func putUint64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// ctxKey keys the tracing values stored in a context.
type ctxKey int

const (
	spanKey ctxKey = iota
	remoteKey
)

// remoteParent is an ingested traceparent: the trace to join and the
// remote span to parent under.
type remoteParent struct {
	trace TraceID
	span  SpanID
}

// ContextWithRemote records a remote parent (an ingested traceparent
// header) in ctx: the next StartSpan joins that trace as a child of
// the remote span instead of opening a fresh trace.
func ContextWithRemote(ctx context.Context, trace TraceID, span SpanID) context.Context {
	return context.WithValue(ctx, remoteKey, remoteParent{trace: trace, span: span})
}

// SpanFromContext returns the span recorded in ctx, or nil. A nil
// span is safe to use — every method no-ops — so callers chain
// without checking.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan opens a span named name as a child of the span in ctx (or
// of an ingested remote parent, or as a new trace root) and returns a
// context carrying it. End the span to record it into the store.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartSpanAt(ctx, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for callers
// that observe already-completed work — a round observer firing at
// the round boundary backdates the span to the previous boundary.
func (t *Tracer) StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: t,
		name:   name,
		start:  start,
	}
	if parent := SpanFromContext(ctx); parent != nil {
		sp.trace = parent.trace
		sp.parent = parent.id
	} else if rp, ok := ctx.Value(remoteKey).(remoteParent); ok {
		sp.trace = rp.trace
		sp.parent = rp.span
	} else {
		sp.trace = t.NewTraceID()
	}
	sp.id = t.NewSpanID()
	return context.WithValue(ctx, spanKey, sp), sp
}

// StartLeafAt opens a child of s that will never have children of
// its own — a round span under its request span — without building a
// context for it. start backdates it like StartSpanAt. On a nil span
// it returns nil.
func (s *Span) StartLeafAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	sp := &Span{
		tracer: s.tracer,
		trace:  s.trace,
		id:     s.tracer.NewSpanID(),
		parent: s.id,
		name:   name,
		start:  start,
	}
	return sp
}

// Span is one unit of traced work. All methods are safe on a nil
// receiver (no-ops) and safe for concurrent use; after End the span
// is frozen and later mutations are ignored.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID

	mu     sync.Mutex
	name   string
	start  time.Time
	dur    time.Duration // set by End
	attrs  []attr        // in SetAttr order, one entry per key
	inline [4]attr       // backs attrs for the usual few attributes
	events []SpanEvent
	errMsg string
	ended  bool
}

// attr is one span attribute. A span keeps its handful of attributes
// in a slice, not a map: recording one is an append, and the map the
// wire form carries is built only when the span is read.
type attr struct {
	key   string
	value any
}

// TraceID returns the span's trace id (zero on a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's own id (zero on a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr records one key=value attribute, overwriting a previous
// value for the same key. Returns the span for chaining.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s
	}
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return s
		}
	}
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, attr{key, value})
	return s
}

// AddEvent appends a timestamped point-in-time event (a store-write
// retry attempt, a cap notice) to the span.
func (s *Span) AddEvent(name string, attrs map[string]any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.events = append(s.events, SpanEvent{Time: time.Now(), Name: name, Attrs: attrs})
}

// SetError marks the span failed with err's message (nil clears it).
func (s *Span) SetError(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if err == nil {
		s.errMsg = ""
	} else {
		s.errMsg = err.Error()
	}
}

// End freezes the span and records it into the tracer's store. Only
// the first End records; later calls are ignored. The store keeps the
// frozen span itself; its wire form, SpanData, is built only when the
// store is read.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	s.tracer.store.add(s)
}

// data renders a frozen span's wire form. Only called on ended spans,
// which never change again, so it reads them without the span lock
// (the store's lock orders it after End).
func (s *Span) data() SpanData {
	d := SpanData{
		TraceID:  s.trace.String(),
		SpanID:   s.id.String(),
		Name:     s.name,
		Start:    s.start,
		Duration: s.dur.Seconds(),
		Error:    s.errMsg,
	}
	if !s.parent.IsZero() {
		d.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.key] = a.value
		}
	}
	if len(s.events) > 0 {
		d.Events = append([]SpanEvent(nil), s.events...)
	}
	return d
}

// SpanData is the wire form of a finished span — what Store.Trace
// returns and /debug/traces serves.
type SpanData struct {
	TraceID  string         `json:"trace_id"`
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration float64        `json:"duration_s"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Events   []SpanEvent    `json:"events,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// SpanEvent is one timestamped point event inside a span.
type SpanEvent struct {
	Time  time.Time      `json:"time"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}
