package server

import (
	"context"
	"log/slog"
	"strings"
	"time"

	"cmabhs"
	"cmabhs/internal/tracing"
)

// This file holds the broker's tracing helpers. The request frame
// (frame.go) opens one span per request — first, so sheds, body
// rejections, and recovered panics are all captured — echoes a
// sanitized-or-generated X-Request-ID on every response including the
// error-envelope paths, joins a caller's W3C traceparent rather than
// replacing it, and writes one structured access-log line per request
// carrying trace_id, route, code, and duration. Child spans cover
// advance-pool acquisition, store writes (one span event per retry
// attempt), and — through the round-observer adapter below — each
// trading round played.

// maxRequestIDLen caps an accepted caller-supplied X-Request-ID.
const maxRequestIDLen = 64

// maxRoundSpans bounds the per-round child spans one advance request
// records; past it the request span carries a single cap notice so a
// 100k-round advance cannot flood the trace buffer.
const maxRoundSpans = 128

// Tracing returns the broker's tracer, building a default one
// (tracing.DefaultCapacity traces) on first use. Set the Tracer field
// before serving to size or share it; its store feeds GET
// /debug/traces on the debug listener.
func (s *Server) Tracing() *tracing.Tracer {
	s.traceOnce.Do(func() {
		if s.Tracer == nil {
			s.Tracer = tracing.New(0)
		}
	})
	return s.Tracer
}

// logger returns the structured logger, defaulting to slog.Default.
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// sanitizeRequestID filters a caller-supplied request id down to
// [A-Za-z0-9._-] and caps its length; anything else (including an
// id that sanitizes to nothing) is discarded so log lines and trace
// attributes never carry attacker-controlled bytes.
func sanitizeRequestID(id string) string {
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteByte(c)
		}
	}
	return b.String()
}

// roundSpanHook builds the tracing RoundObserver adapter for one
// advance request: each completed round becomes a leaf span under the
// request span, backdated to the previous round boundary and carrying
// the job id and round index as attributes. The hook is strictly
// passive — it reads the event and writes only into the tracer.
// Returns nil when the request carries no span to parent under.
func (s *Server) roundSpanHook(ctx context.Context, jobID string) func(*cmabhs.RoundEvent) {
	parent := tracing.SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	job := any(jobID) // boxed once per advance, not once per round
	n := 0
	last := time.Now()
	return func(ev *cmabhs.RoundEvent) {
		n++
		if n > maxRoundSpans {
			if n == maxRoundSpans+1 {
				parent.AddEvent("round spans capped", map[string]any{"cap": maxRoundSpans})
			}
			return
		}
		sp := parent.StartLeafAt("round", last)
		sp.SetAttr("job_id", job)
		sp.SetAttr("round", ev.Round.Round)
		if ev.Round.NoTrade {
			sp.SetAttr("no_trade", true)
		}
		if len(ev.FailedSellers) > 0 {
			sp.SetAttr("failed_sellers", len(ev.FailedSellers))
		}
		sp.End()
		last = time.Now()
	}
}
