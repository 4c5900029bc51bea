package server

import (
	"net/http"
	"strings"

	"cmabhs/internal/metrics"
)

// route is one entry of the broker's route table. Its path is both the
// ServeMux pattern and the route label that metrics, the request span,
// the access log, and the proxy counter carry. Handler binds the label
// when it builds the mux; nothing maps a URL back to a route.
type route struct {
	method string
	path   string
	// serve handles the request. Job-scoped routes set job instead:
	// their {id} is resolved to a live job first (see serveJob).
	serve func(http.ResponseWriter, *http.Request)
	job   func(http.ResponseWriter, *http.Request, *job)
	// stream marks the live event stream, exempt from RequestTimeout.
	stream bool
}

// advancePath is the advance route's pattern, named because the shed
// rate (metrics.go) divides by that route's request windows.
const advancePath = "/v1/jobs/{id}/advance"

// routes is the broker's route table — the one place the API surface
// is spelled out (the package doc lists the same endpoints).
func (s *Server) routes() []route {
	return []route{
		{method: http.MethodGet, path: "/v1/healthz", serve: s.handleHealthz},
		{method: http.MethodGet, path: "/v1/jobs", serve: s.handleListJobs},
		{method: http.MethodPost, path: "/v1/jobs", serve: s.handleCreateJob},
		{method: http.MethodGet, path: "/v1/jobs/{id}", job: s.handleGetJob},
		{method: http.MethodDelete, path: "/v1/jobs/{id}", job: s.handleDeleteJob},
		{method: http.MethodPost, path: advancePath, job: s.handleAdvance},
		{method: http.MethodPost, path: "/v1/jobs/{id}/snapshot", job: s.handleSnapshot},
		{method: http.MethodGet, path: "/v1/jobs/{id}/estimates", job: s.handleEstimates},
		{method: http.MethodGet, path: "/v1/jobs/{id}/events", job: s.handleJobEvents, stream: true},
		{method: http.MethodGet, path: "/v1/jobs/{id}/series", job: s.handleJobSeries},
		{method: http.MethodPost, path: "/v1/game/solve", serve: s.handleSolveGame},
		{method: http.MethodGet, path: "/v1/stats", serve: s.handleStats},
		{method: http.MethodGet, path: "/v1/cluster/overview", serve: s.handleClusterOverview},
		{method: http.MethodGet, path: "/metrics", serve: s.handleMetrics},
	}
}

// Handler returns the HTTP handler for the broker API: the route table
// on a method+pattern ServeMux, each entry in its request frame (see
// frame.go). Per-route instruments are resolved here, so set Registry
// and Cluster before calling it. Each path also gets a method-less
// pattern answering other methods with the JSON 405 under its label;
// "/" answers the rest with the 404 envelope under "other".
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	allow := make(map[string][]string) // path -> methods served
	for _, rt := range s.routes() {
		h := http.HandlerFunc(rt.serve)
		if rt.job != nil {
			h = s.serveJob(rt.job, s.met().proxied(rt.path))
		}
		mux.Handle(rt.method+" "+rt.path, s.frame(rt, h))
		allow[rt.path] = append(allow[rt.path], rt.method)
	}
	for path, methods := range allow {
		mux.Handle(path, s.frame(route{path: path}, methodNotAllowed(methods)))
	}
	mux.Handle("/", s.frame(route{path: "other"}, http.HandlerFunc(notFound)))
	return mux
}

// serveJob adapts a job-scoped handler: the {id} path value is looked
// up in the registry and, on a clustered broker, through routeJob —
// which takes the job over or proxies the request to its owner,
// counting the hop on proxied. Anything else is a 404.
func (s *Server) serveJob(fn func(http.ResponseWriter, *http.Request, *job), proxied *metrics.Counter) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := s.registry().get(id)
		switch {
		case ok:
		case s.clustered():
			if j = s.routeJob(w, r, id, proxied); j == nil {
				return
			}
		default:
			httpError(w, http.StatusNotFound, "no job %q", id)
			return
		}
		fn(w, r, j)
	}
}

// methodNotAllowed answers a method the path does not serve.
func methodNotAllowed(methods []string) http.HandlerFunc {
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		httpError(w, http.StatusMethodNotAllowed, "%s not allowed; use %s", r.Method, allow)
	}
}

// notFound answers a path no route matches.
func notFound(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
}
