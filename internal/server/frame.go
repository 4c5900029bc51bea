package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"cmabhs/internal/metrics"
	"cmabhs/internal/tracing"
)

// statusWriter records the status a handler wrote — for the request
// counter, the access log, and panic recovery, which can only send its
// 500 while code is still 0. A bare Write is the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying flusher so the event stream can
// push rounds through the frame as they happen.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// frame wraps next in rt's request frame, the only layer between the
// mux and a handler. The label and instruments are bound here, once,
// when Handler builds the mux. Per request, in order, the frame:
//
//  1. correlates: request id (sanitized or generated), inbound
//     traceparent, request span — first, so every response (2xx, 413,
//     shed 429, recovered 500) carries them;
//  2. accounts: in-flight gauge, latency histogram and windows, request
//     counter by route, method, and status, then the access-log line;
//  3. bounds the body: a declared length past MaxBodyBytes is a 413
//     before a byte is read; undeclared bodies are capped by
//     http.MaxBytesReader (decodeJSON maps the trip to the same 413);
//  4. deadlines the request by RequestTimeout (the advance loop returns
//     partial progress at a round boundary) — except the live event
//     stream, which ends when its client disconnects;
//  5. recovers a handler panic into a 500 and a log line, so one
//     poisoned request cannot take down the live jobs;
//     http.ErrAbortHandler passes through.
func (s *Server) frame(rt route, next http.Handler) http.Handler {
	m := s.met()
	rm, label := m.routes[rt.path], rt.path
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.Tracing()
		reqID := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if reqID == "" {
			reqID = tr.NewRequestID()
		}
		ctx := r.Context()
		if tid, sid, ok := tracing.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = tracing.ContextWithRemote(ctx, tid, sid)
		}
		ctx, span := tr.StartSpan(ctx, "http "+r.Method+" "+label)
		span.SetAttr("route", label)
		span.SetAttr("method", r.Method)
		span.SetAttr("request_id", reqID)
		w.Header().Set("X-Request-ID", reqID)
		w.Header().Set("Traceparent", tracing.FormatTraceparent(span.TraceID(), span.SpanID()))
		sw := &statusWriter{ResponseWriter: w}
		m.inFlight.Add(1)
		start := time.Now()
		defer func() {
			took := time.Since(start)
			m.inFlight.Add(-1)
			secs := took.Seconds()
			rm.latency.Observe(secs)
			rm.win[0].Observe(secs)
			rm.win[1].Observe(secs)
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			m.reg.Counter(mnRequests, "HTTP requests served, by route pattern, method, and status.",
				metrics.L("route", label),
				metrics.L("method", r.Method),
				metrics.L("code", strconv.Itoa(code))).Inc()
			span.SetAttr("code", code)
			span.End()
			s.logger().LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("trace_id", span.TraceID().String()),
				slog.String("request_id", reqID),
				slog.String("route", label),
				slog.String("method", r.Method),
				slog.Int("code", code),
				slog.Duration("duration", took),
			)
		}()

		limit := s.maxBodyBytes()
		if r.ContentLength > limit {
			m.bodyReject.Inc()
			httpError(sw, http.StatusRequestEntityTooLarge,
				"request body %d bytes exceeds limit %d", r.ContentLength, limit)
			return
		}
		rctx := ctx
		if s.RequestTimeout > 0 && !rt.stream {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(ctx, s.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(rctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, limit)
		}

		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			m.panics.Inc()
			span.SetError(fmt.Errorf("panic: %v", rec))
			s.logger().LogAttrs(rctx, slog.LevelError, "panic recovered",
				slog.String("trace_id", span.TraceID().String()),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("panic", fmt.Sprint(rec)),
				slog.String("stack", string(debug.Stack())),
			)
			if sw.code == 0 {
				httpError(sw, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

func (s *Server) maxBodyBytes() int64 {
	if s.MaxBodyBytes > 0 {
		return s.MaxBodyBytes
	}
	return 1 << 20 // 1 MiB default
}

// decodeJSON decodes a request body into v and writes the error
// response itself on failure: 413 when the body-limit reader tripped,
// 400 for malformed JSON. Returns false when the caller should stop.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.met().bodyReject.Inc()
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds limit %d bytes", tooBig.Limit)
		return false
	}
	httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	return false
}

// retryAfter formats a Retry-After value from the shed backoff hint.
func retryAfter(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprint(secs)
}
