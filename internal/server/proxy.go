package server

import (
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	"cmabhs/internal/metrics"
)

// Request forwarding. A clustered broker serves any job it owns and
// transparently proxies requests for jobs a peer owns, so clients can
// talk to any node (or a dumb load balancer in front of all of them)
// without knowing the ownership map. The proxied request carries the
// current trace context (traceparent) and the request id, so the
// owner's spans and access lines stitch into the same trace the
// first-hop node started. Exactly one hop is allowed: a forwarded
// request that still cannot be served locally answers 503 +
// Retry-After — ownership is in transition (a steal or handoff is in
// flight) and the client should simply retry.

const (
	// forwardedByHeader marks a request as already proxied once; its
	// value is the forwarding node's id. It is the loop guard.
	forwardedByHeader = "X-CDT-Forwarded-By"
	// proxiedByHeader is stamped on relayed RESPONSES so operators
	// (and the failover smoke test) can see which node forwarded.
	proxiedByHeader = "X-CDT-Proxied-By"
)

// inTransitionRetry computes the Retry-After hint for a 503: the time
// until the current lease (if any) becomes stealable, clamped to
// [1s, TTL+grace].
func (s *Server) inTransitionRetry(l *Lease) time.Duration {
	hint := time.Second
	if l != nil {
		if d := l.Expiry().Add(leaseGrace).Sub(s.leaseStore().now()); d > hint {
			hint = d
		}
	}
	if max := s.Cluster.ttl() + leaseGrace; hint > max {
		hint = max
	}
	return hint
}

// routeJob resolves where a job-scoped request must be served when the
// job is not in the local registry. It returns the job after a
// successful local takeover — the caller serves as if the job had been
// local all along — or nil when the response (proxy relay, 503, 404,
// 500) has already been written. proxied counts a relay under the
// request's route label.
func (s *Server) routeJob(w http.ResponseWriter, r *http.Request, id string, proxied *metrics.Counter) *job {
	ls := s.leaseStore()
	l, err := ls.LoadLease(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return nil
	}
	if s.claimable(id, l) {
		// Unowned and ours by HRW, expired and ours by succession, or
		// recorded as ours already: take it over and serve locally.
		j, err := s.takeover(r.Context(), id)
		switch {
		case err == nil:
			return j
		case errors.Is(err, ErrLeaseHeld):
			// Raced another claimant between LoadLease and Acquire.
			s.met().proxyRejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "ownership_transition", s.inTransitionRetry(l),
				"job %q ownership is in transition: %v", id, err)
		case errors.Is(err, os.ErrNotExist):
			httpError(w, http.StatusNotFound, "no job %q", id)
		default:
			httpError(w, http.StatusInternalServerError, "takeover %s: %v", id, err)
		}
		return nil
	}

	// Another node's job: find the peer to forward to — the recorded
	// owner while the lease is live, else the designated successor.
	expired := l != nil && l.Expired(s.leaseStore().now(), leaseGrace)
	if l == nil {
		// No lease and not ours: the HRW home is another peer. But
		// first distinguish "not created yet" from "unadopted": a
		// missing snapshot is a plain 404, not a forward.
		if _, err := s.Store.Load(id); errors.Is(err, os.ErrNotExist) {
			httpError(w, http.StatusNotFound, "no job %q", id)
			return nil
		}
	}
	target := claimantOf(s.Cluster.Peers, id, l, expired)
	peer, ok := s.Cluster.peer(target.ID)
	if !ok || peer.ID == s.Cluster.NodeID || r.Header.Get(forwardedByHeader) != "" {
		// Unknown target, self-forward, or second hop: ownership is in
		// transition; tell the client when to come back.
		s.met().proxyRejected.Inc()
		writeError(w, http.StatusServiceUnavailable, "ownership_transition", s.inTransitionRetry(l),
			"job %q ownership is in transition (owner %s)", id, target.ID)
		return nil
	}
	s.proxyTo(w, r, peer, l, proxied)
	return nil
}

// stampHop marks an outbound peer request as this node's hop: the loop
// guard, plus the CURRENT trace context and request id rather than the
// inbound ones — the request frame already minted this hop's span and
// wrote its traceparent (same trace id, this node's span as parent)
// and the sanitized-or-generated request id onto respHeader.
func (s *Server) stampHop(out *http.Request, respHeader http.Header) {
	for _, k := range []string{"Traceparent", "X-Request-ID"} {
		if v := respHeader.Get(k); v != "" {
			out.Header.Set(k, v)
		}
	}
	out.Header.Set(forwardedByHeader, s.Cluster.NodeID)
}

// proxyClient returns the outbound HTTP client.
func (s *Server) proxyClient() *http.Client {
	if s.Cluster.Client != nil {
		return s.Cluster.Client
	}
	return http.DefaultClient
}

// proxyTo relays the request to peer and streams the response back.
// The outbound request inherits the inbound context (and therefore its
// deadline; /events streams are exempt upstream), the current trace
// context, and the request id.
func (s *Server) proxyTo(w http.ResponseWriter, r *http.Request, peer Peer, l *Lease, proxied *metrics.Counter) {
	proxied.Inc()

	out, err := http.NewRequestWithContext(r.Context(), r.Method, peer.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "proxy: %v", err)
		return
	}
	out.Header = r.Header.Clone()
	out.ContentLength = r.ContentLength
	s.stampHop(out, w.Header())

	resp, err := s.proxyClient().Do(out)
	if err != nil {
		// The owner is unreachable — crashed (failover pending lease
		// expiry) or partitioned. 503 + the time until its lease can be
		// stolen.
		s.met().proxyErrors.Inc()
		writeError(w, http.StatusServiceUnavailable, "owner_unreachable", s.inTransitionRetry(l),
			"job owner %s unreachable: %v", peer.ID, err)
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h.Del(k)
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set(proxiedByHeader, s.Cluster.NodeID)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy streams body to w, flushing after every chunk so proxied
// SSE/NDJSON event streams stay live end to end.
func flushCopy(w http.ResponseWriter, body io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
