package tracing

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
)

func TestHandlerListAndDetail(t *testing.T) {
	tr := NewSeeded(7, 8)
	ctx, root := tr.StartSpan(context.Background(), "http POST /v1/jobs/{id}/advance")
	_, child := tr.StartSpan(ctx, "round")
	child.SetAttr("round", 1)
	child.End()
	root.End()
	_, lone := tr.StartSpan(context.Background(), "http GET /v1/healthz")
	lone.End()

	h := Handler(tr.Store())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d", rec.Code)
	}
	var list TraceListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("%d traces listed, want 2", len(list.Traces))
	}
	// Newest first: the healthz trace finished last.
	if list.Traces[0].Name != "http GET /v1/healthz" {
		t.Fatalf("newest-first order broken: %+v", list.Traces)
	}
	if list.Traces[1].Spans != 2 {
		t.Fatalf("advance trace lists %d spans, want 2", list.Traces[1].Spans)
	}

	// ?limit trims the listing.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?limit=1", nil))
	list = TraceListResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(list.Traces))
	}

	// Detail carries the span tree.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+root.TraceID().String(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status %d", rec.Code)
	}
	var detail TraceDetail
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if len(detail.Spans) != 2 || detail.Spans[0].Name != "round" {
		t.Fatalf("detail spans %+v", detail.Spans)
	}
	if detail.Spans[0].ParentID != root.SpanID().String() {
		t.Fatal("child span lost its parent through the wire")
	}

	// Unknown trace and wrong method.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", rec.Code)
	}
}

// TestHandlerDetailFields pins the wire shape of one span in
// GET /debug/traces/{id}: the field names, attrs as a JSON object,
// events as a list, and omitempty on the optional fields.
func TestHandlerDetailFields(t *testing.T) {
	tr := NewSeeded(12, 8)
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.SetAttr("job_id", "job-1")
	child.SetAttr("round", 3)
	child.AddEvent("retry", map[string]any{"attempt": 1})
	child.SetError(errors.New("boom"))
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	Handler(tr.Store()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/debug/traces/"+root.TraceID().String(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status %d", rec.Code)
	}
	var detail struct {
		TraceID string                       `json:"trace_id"`
		Spans   []map[string]json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.TraceID != root.TraceID().String() || len(detail.Spans) != 2 {
		t.Fatalf("detail %s with %d spans", detail.TraceID, len(detail.Spans))
	}
	keys := func(m map[string]json.RawMessage) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	c, r := detail.Spans[0], detail.Spans[1]
	want := []string{"attrs", "duration_s", "error", "events", "name", "parent_id", "span_id", "start", "trace_id"}
	if got := keys(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("child span fields %v, want %v", got, want)
	}
	// The root has no parent, events or error; its attrs are empty too.
	if got := keys(r); !reflect.DeepEqual(got, []string{"duration_s", "name", "span_id", "start", "trace_id"}) {
		t.Fatalf("root span fields %v", got)
	}
	str := func(raw json.RawMessage) string {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("%s is not a string: %v", raw, err)
		}
		return s
	}
	if str(c["trace_id"]) != root.TraceID().String() || str(c["span_id"]) != child.SpanID().String() ||
		str(c["parent_id"]) != root.SpanID().String() || str(c["error"]) != "boom" {
		t.Fatalf("child ids/error wrong: %s", rec.Body)
	}
	var attrs map[string]any
	if err := json.Unmarshal(c["attrs"], &attrs); err != nil {
		t.Fatalf("attrs %s is not an object: %v", c["attrs"], err)
	}
	if !reflect.DeepEqual(attrs, map[string]any{"job_id": "job-1", "round": float64(3)}) {
		t.Fatalf("attrs %v", attrs)
	}
	var events []SpanEvent
	if err := json.Unmarshal(c["events"], &events); err != nil || len(events) != 1 ||
		events[0].Name != "retry" || events[0].Attrs["attempt"] != float64(1) {
		t.Fatalf("events %s: %v", c["events"], err)
	}
}
