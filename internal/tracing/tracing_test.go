package tracing

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDsNonZeroAndDistinct(t *testing.T) {
	tr := NewSeeded(1, 8)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		tid, sid := tr.NewTraceID(), tr.NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("zero id generated")
		}
		if len(tid.String()) != 32 || len(sid.String()) != 16 {
			t.Fatalf("bad hex lengths %q %q", tid, sid)
		}
		if seen[tid.String()] || seen[sid.String()] {
			t.Fatalf("duplicate id at draw %d", i)
		}
		seen[tid.String()] = true
		seen[sid.String()] = true
	}
	if id := tr.NewRequestID(); len(id) != 16 {
		t.Fatalf("request id %q, want 16 hex chars", id)
	}
}

func TestSpanParentChildLinking(t *testing.T) {
	tr := NewSeeded(2, 8)
	ctx, root := tr.StartSpan(context.Background(), "root")
	ctx2, child := tr.StartSpan(ctx, "child")
	_, grandchild := tr.StartSpan(ctx2, "grandchild")

	if child.TraceID() != root.TraceID() || grandchild.TraceID() != root.TraceID() {
		t.Fatal("children left the trace")
	}
	grandchild.End()
	child.End()
	root.SetAttr("k", "v")
	root.End()

	detail, ok := tr.Store().Trace(root.TraceID().String())
	if !ok {
		t.Fatal("trace not stored")
	}
	if len(detail.Spans) != 3 {
		t.Fatalf("%d spans stored, want 3", len(detail.Spans))
	}
	// Finish order: grandchild, child, root.
	byName := map[string]SpanData{}
	for _, sp := range detail.Spans {
		byName[sp.Name] = sp
	}
	if byName["root"].ParentID != "" {
		t.Fatalf("root has parent %q", byName["root"].ParentID)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatal("child not parented under root")
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Fatal("grandchild not parented under child")
	}
	if byName["root"].Attrs["k"] != "v" {
		t.Fatalf("root attrs %v", byName["root"].Attrs)
	}
}

func TestRemoteParentIngest(t *testing.T) {
	tr := NewSeeded(3, 8)
	remoteTrace, remoteSpan := tr.NewTraceID(), tr.NewSpanID()
	ctx := ContextWithRemote(context.Background(), remoteTrace, remoteSpan)
	_, sp := tr.StartSpan(ctx, "server")
	if sp.TraceID() != remoteTrace {
		t.Fatalf("span opened trace %s, want remote %s", sp.TraceID(), remoteTrace)
	}
	sp.End()
	detail, _ := tr.Store().Trace(remoteTrace.String())
	if len(detail.Spans) != 1 || detail.Spans[0].ParentID != remoteSpan.String() {
		t.Fatalf("remote parent not linked: %+v", detail.Spans)
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every nil-span method must be a safe no-op.
	sp.SetAttr("a", 1)
	sp.AddEvent("e", nil)
	sp.SetError(errors.New("boom"))
	sp.End()
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() {
		t.Fatal("nil span carries ids")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Fatal("nil tracer polluted the context")
	}
}

func TestSpanEndIsIdempotentAndFreezes(t *testing.T) {
	tr := NewSeeded(4, 8)
	_, sp := tr.StartSpan(context.Background(), "once")
	sp.End()
	sp.SetAttr("late", true) // ignored after End
	sp.AddEvent("late", nil)
	sp.End() // second End must not double-record
	detail, _ := tr.Store().Trace(sp.TraceID().String())
	if len(detail.Spans) != 1 {
		t.Fatalf("%d spans recorded for one End'd span", len(detail.Spans))
	}
	if detail.Spans[0].Attrs != nil || detail.Spans[0].Events != nil {
		t.Fatal("mutation after End leaked into the record")
	}
}

func TestStartSpanAtBackdates(t *testing.T) {
	tr := NewSeeded(5, 8)
	start := time.Now().Add(-time.Second)
	_, sp := tr.StartSpanAt(context.Background(), "late", start)
	sp.End()
	detail, _ := tr.Store().Trace(sp.TraceID().String())
	if d := detail.Spans[0].Duration; d < 0.9 {
		t.Fatalf("backdated span duration %gs, want ~1s", d)
	}
}

// rootSpan records a finished single-span trace through tr.
func rootSpan(tr *Tracer, name string) *Span {
	_, sp := tr.StartSpan(context.Background(), name)
	sp.End()
	return sp
}

func TestStoreEvictionOrder(t *testing.T) {
	tr := NewSeeded(8, 3)
	s := tr.Store()
	var roots []*Span
	var ids []string
	for i := 0; i < 5; i++ {
		roots = append(roots, rootSpan(tr, "n"))
		ids = append(ids, roots[i].TraceID().String())
	}
	if len(s.Traces()) != 3 {
		t.Fatalf("store holds %d traces, want 3", len(s.Traces()))
	}
	if s.Evicted() != 2 {
		t.Fatalf("evicted %d, want 2", s.Evicted())
	}
	// The two oldest are gone, the three newest remain.
	for _, id := range ids[:2] {
		if _, ok := s.Trace(id); ok {
			t.Fatalf("trace %s should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Trace(id); !ok {
			t.Fatalf("trace %s missing", id)
		}
	}
	// Listing is newest-first.
	list := s.Traces()
	if len(list) != 3 || list[0].TraceID != ids[4] || list[2].TraceID != ids[2] {
		t.Fatalf("listing order wrong: %+v", list)
	}
	// A span for an already-stored trace must not evict anything.
	roots[3].StartLeafAt("n2", time.Now()).End()
	if s.Evicted() != 2 || len(s.Traces()) != 3 {
		t.Fatal("adding to a live trace evicted something")
	}
	if d, _ := s.Trace(ids[3]); len(d.Spans) != 2 {
		t.Fatalf("live trace holds %d spans, want 2", len(d.Spans))
	}
}

func TestStoreSpanCapCountsDrops(t *testing.T) {
	tr := NewSeeded(9, 4)
	s := tr.Store()
	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < DefaultMaxSpansPerTrace+7; i++ {
		_, sp := tr.StartSpan(ctx, fmt.Sprint(i))
		sp.End()
	}
	detail, _ := s.Trace(root.TraceID().String())
	if len(detail.Spans) != DefaultMaxSpansPerTrace {
		t.Fatalf("%d spans kept, want %d", len(detail.Spans), DefaultMaxSpansPerTrace)
	}
	if detail.Dropped != 7 || s.DroppedSpans() != 7 {
		t.Fatalf("dropped %d/%d, want 7", detail.Dropped, s.DroppedSpans())
	}
}

// TestStoreTraceCanonicalID pins the lookup grammar: Store.Trace
// answers the 32-character lowercase hex id TraceID.String renders,
// and nothing else — not uppercase, not a prefix, not padded.
func TestStoreTraceCanonicalID(t *testing.T) {
	tr := NewSeeded(10, 4)
	id := rootSpan(tr, "n").TraceID().String()
	if _, ok := tr.Store().Trace(id); !ok {
		t.Fatalf("canonical id %s not found", id)
	}
	for _, bad := range []string{
		strings.ToUpper(id),
		id[:31],
		id + "0",
		" " + id,
		"",
		strings.Repeat("0", 32),
		strings.Repeat("g", 32),
	} {
		if _, ok := tr.Store().Trace(bad); ok {
			t.Errorf("Trace(%q) found a trace", bad)
		}
	}
}

// TestStartLeafAt checks a leaf span joins its parent's trace under
// the parent, is backdated, and records like any other span.
func TestStartLeafAt(t *testing.T) {
	tr := NewSeeded(11, 4)
	_, root := tr.StartSpan(context.Background(), "root")
	leaf := root.StartLeafAt("leaf", time.Now().Add(-time.Second))
	leaf.SetAttr("round", 7)
	leaf.SetAttr("round", 8) // overwrites, one entry per key
	leaf.End()
	root.End()
	detail, _ := tr.Store().Trace(root.TraceID().String())
	if len(detail.Spans) != 2 {
		t.Fatalf("%d spans stored, want 2", len(detail.Spans))
	}
	l := detail.Spans[0]
	if l.Name != "leaf" || l.ParentID != root.SpanID().String() || l.TraceID != root.TraceID().String() {
		t.Fatalf("leaf span %+v not under root %s", l, root.SpanID())
	}
	if l.Duration < 0.9 {
		t.Fatalf("leaf duration %gs, want ~1s", l.Duration)
	}
	if len(l.Attrs) != 1 || l.Attrs["round"] != 8 {
		t.Fatalf("leaf attrs %v, want round=8", l.Attrs)
	}
	var nilSpan *Span
	if nilSpan.StartLeafAt("x", time.Now()) != nil {
		t.Fatal("nil parent returned a leaf")
	}
}

func TestTraceparentTable(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tests := []struct {
		name, header string
		ok           bool
	}{
		{"valid v00", valid, true},
		{"valid future version", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", true},
		{"empty", "", false},
		{"too short", "00-abc-def-01", false},
		{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"uppercase hex", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false},
		{"non-hex version", "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false},
		{"zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false},
		{"missing dashes", strings.ReplaceAll(valid, "-", "_"), false},
		{"v00 with trailing junk", valid + "-extra", false},
		{"future version glued junk", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01extra", false},
		{"non-hex trace id", "00-0af7651916cd43dd8448eb211c8031xx-b7ad6b7169203331-01", false},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0x", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			trace, span, ok := ParseTraceparent(tc.header)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok=%v, want %v", tc.header, ok, tc.ok)
			}
			if ok && (trace.IsZero() || span.IsZero()) {
				t.Fatal("accepted header produced zero ids")
			}
		})
	}
	// Round trip through the formatter.
	tr := NewSeeded(6, 4)
	tid, sid := tr.NewTraceID(), tr.NewSpanID()
	gotT, gotS, ok := ParseTraceparent(FormatTraceparent(tid, sid))
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("format/parse round trip lost ids: %v %v %v", gotT, gotS, ok)
	}
}

func TestNewLoggerValidation(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct{ format, level string }{
		{"text", "info"}, {"json", "debug"}, {"", ""}, {"TEXT", "WARN"},
	} {
		if _, err := NewLogger(&sb, tc.format, tc.level); err != nil {
			t.Fatalf("NewLogger(%q, %q): %v", tc.format, tc.level, err)
		}
	}
	if _, err := NewLogger(&sb, "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&sb, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	lg, err := NewLogger(&sb, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "trace_id", "abc")
	if !strings.Contains(sb.String(), `"trace_id":"abc"`) {
		t.Fatalf("json log line missing attr: %s", sb.String())
	}
	lg.Debug("hidden")
	if strings.Contains(sb.String(), "hidden") {
		t.Fatal("debug line emitted at info level")
	}
}

// TestStoreConcurrentRecordAndRead records spans from several
// goroutines — including late SetAttr calls on spans already ended —
// while another renders the store, for the race detector: the store
// hands out frozen spans it reads without their locks.
func TestStoreConcurrentRecordAndRead(t *testing.T) {
	tr := NewSeeded(13, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, root := tr.StartSpan(context.Background(), "root")
				leaf := root.StartLeafAt("leaf", time.Now())
				leaf.SetAttr("round", i)
				leaf.End()
				root.End()
				leaf.SetAttr("late", true)
				root.AddEvent("late", nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, sum := range tr.Store().Traces() {
				if d, ok := tr.Store().Trace(sum.TraceID); ok {
					for _, sp := range d.Spans {
						if sp.Attrs["late"] != nil || len(sp.Events) != 0 {
							t.Error("a mutation after End reached the store")
							return
						}
					}
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(tr.Store().Traces()); got != 16 {
		t.Fatalf("store holds %d traces, want 16", got)
	}
}
