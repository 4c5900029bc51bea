package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmabhs"
	"cmabhs/internal/metrics"
	"cmabhs/internal/roundlog"
	"cmabhs/internal/telemetry"
)

// Live round-event streaming: GET /v1/jobs/{id}/events serves the
// per-round events the Session.Observe hook produces as Server-Sent
// Events (default) or NDJSON (?format=ndjson / Accept:
// application/x-ndjson). Delivery is bounded: each subscriber gets a
// fixed buffer, and a subscriber that cannot keep up with the
// advance loop has events DROPPED (counted in
// cdt_job_events_dropped_total, visible as gaps in the round
// numbers) rather than ever back-pressuring the simulation.

// eventBufferSize is the per-subscriber buffered-channel depth.
const eventBufferSize = 256

// eventHeartbeat is the SSE keep-alive comment interval.
const eventHeartbeat = 15 * time.Second

// JobEvent is the wire form of one round event on the live stream.
type JobEvent struct {
	JobID           string  `json:"job_id"`
	Round           int     `json:"round"`
	Selected        []int   `json:"selected"`
	ConsumerPrice   float64 `json:"consumer_price"`
	PlatformPrice   float64 `json:"platform_price"`
	ConsumerProfit  float64 `json:"consumer_profit"`
	PlatformProfit  float64 `json:"platform_profit"`
	NoTrade         bool    `json:"no_trade,omitempty"`
	FailedSellers   []int   `json:"failed_sellers,omitempty"`
	Regret          float64 `json:"regret"`
	ExpectedRevenue float64 `json:"expected_revenue"`
	ConsumerSpend   float64 `json:"consumer_spend"`
}

// eventSub is one live-stream subscriber.
type eventSub struct {
	ch      chan JobEvent
	dropped atomic.Int64
}

// eventHub fans one job's round events out to its subscribers. It has
// its own lock (never the job's) so subscribing during a long advance
// cannot block, and publishing from under the job lock cannot
// deadlock.
type eventHub struct {
	drops *metrics.Counter // slow-consumer drop counter (shared, registry-owned)

	mu   sync.Mutex
	subs map[*eventSub]struct{}
	n    atomic.Int32 // len(subs), readable without the lock
}

func newEventHub(drops *metrics.Counter) *eventHub {
	return &eventHub{drops: drops, subs: make(map[*eventSub]struct{})}
}

// active reports whether anyone is listening — the publish fast path.
func (h *eventHub) active() bool { return h.n.Load() > 0 }

func (h *eventHub) subscribe(buf int) *eventSub {
	sub := &eventSub{ch: make(chan JobEvent, buf)}
	h.mu.Lock()
	h.subs[sub] = struct{}{}
	h.n.Store(int32(len(h.subs)))
	h.mu.Unlock()
	return sub
}

func (h *eventHub) unsubscribe(sub *eventSub) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.n.Store(int32(len(h.subs)))
	h.mu.Unlock()
}

// publish delivers ev to every subscriber without ever blocking: a
// full buffer means the subscriber is slower than the simulation, and
// the event is dropped for that subscriber alone.
func (h *eventHub) publish(ev JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			h.drops.Inc()
		}
	}
}

// observe is the job's round observer, attached for the duration of
// every advance call (it runs on the advance goroutine, which holds
// j.mu). It fans the borrowed event out to the tracing hook, encodes
// the round in place onto the write-ahead buffer when the broker runs
// on a RoundWAL store (the borrowed slices are read, never retained),
// and, only when someone is listening, copies it onto the wire form
// for the hub — so an unwatched, untraced advance on a snapshot-only
// store pays three cheap checks.
func (j *job) observe(ev *cmabhs.RoundEvent) {
	if j.traceHook != nil {
		j.traceHook(ev)
	}
	if j.walLog {
		rec := walRecord(&ev.Round)
		if buf, err := roundlog.AppendSegmentRecord(j.walBuf, &rec); err != nil {
			j.walErrs++ // reported at flush time, never fails the advance
		} else {
			j.walBuf = buf
			j.walCount++
		}
	}
	if j.series != nil {
		// Copies five scalars out of the borrowed event; the recorder
		// owns everything it keeps, so the series stays strictly
		// passive (the chaos suite proves byte-identity with it on).
		j.series.Record(telemetry.Point{
			Round:   ev.Round.Round,
			Regret:  ev.Regret,
			Revenue: ev.ExpectedRevenue,
			Spend:   ev.ConsumerSpend,
			NoTrade: ev.Round.NoTrade,
			Failed:  len(ev.FailedSellers),
		})
	}
	if j.hub.active() {
		j.hub.publish(j.wireEvent(ev))
	}
}

// wireEvent copies a borrowed RoundEvent into an owned JobEvent.
func (j *job) wireEvent(ev *cmabhs.RoundEvent) JobEvent {
	return JobEvent{
		JobID:           j.id,
		Round:           ev.Round.Round,
		Selected:        append([]int(nil), ev.Round.Selected...),
		ConsumerPrice:   ev.Round.ConsumerPrice,
		PlatformPrice:   ev.Round.PlatformPrice,
		ConsumerProfit:  ev.Round.ConsumerProfit,
		PlatformProfit:  ev.Round.PlatformProfit,
		NoTrade:         ev.Round.NoTrade,
		FailedSellers:   append([]int(nil), ev.FailedSellers...),
		Regret:          ev.Regret,
		ExpectedRevenue: ev.ExpectedRevenue,
		ConsumerSpend:   ev.ConsumerSpend,
	}
}

// wantsNDJSON picks the stream framing: NDJSON on explicit request,
// SSE otherwise.
func wantsNDJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "ndjson" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// handleJobEvents streams a job's live round events until the client
// disconnects. Events are produced only while advance calls run;
// between advances the stream idles (SSE subscribers get keep-alive
// comments).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	flusher := w.(http.Flusher) // the request frame's statusWriter
	ndjson := wantsNDJSON(r)
	sub := j.hub.subscribe(eventBufferSize)
	defer j.hub.unsubscribe(sub)

	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.Header().Set("X-Accel-Buffering", "no") // keep reverse proxies from buffering the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(eventHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-sub.ch:
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if ndjson {
				if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
					return
				}
			} else {
				if _, err := fmt.Fprintf(w, "event: round\ndata: %s\n\n", data); err != nil {
					return
				}
			}
			flusher.Flush()
		case <-heartbeat.C:
			if !ndjson {
				if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
					return
				}
				flusher.Flush()
			}
		}
	}
}
