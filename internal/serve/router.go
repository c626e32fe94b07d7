package serve

import (
	"net/http"
	"strings"

	"autowrap/internal/store"
)

// Handler returns the server's route table: a precompiled static dispatch
// over the fixed route set instead of an http.ServeMux. Every request is
// routed with one switch on the path (plus a prefix check for the two
// parameterized jobs routes) — no per-request pattern matching, no
// intermediate allocations. Semantics match the previous mux wiring:
// unknown paths 404, a known path with the wrong method 405 with an Allow
// header, and the non-method-specific routes leave method checks to their
// handlers.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.route) }

// jobsPrefix is the path prefix of the two parameterized routes,
// GET /v1/jobs/{id} and POST /v1/jobs/{id}/cancel.
const jobsPrefix = "/v1/jobs/"

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	// Shard role: ring agreement is checked once, ahead of every route —
	// a request pinned to a different ring must not reach any handler.
	if !s.checkRingHash(w, r) {
		return
	}
	switch r.URL.Path {
	case "/v1/extract":
		s.handleExtract(w, r)
	case "/healthz":
		s.handleHealthz(w, r)
	case "/metrics":
		s.handleMetrics(w, r)
	case "/v1/sites":
		s.handleSites(w, r)
	case "/v1/promote":
		s.handleLifecycle(w, r, store.OpPromote)
	case "/v1/rollback":
		s.handleLifecycle(w, r, store.OpRollback)
	case "/v1/repair":
		s.handleRepair(w, r)
	case "/v1/learn":
		s.handleLearn(w, r)
	case "/v1/audit":
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		s.handleAudit(w, r)
	case "/v1/jobs":
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		s.handleJobs(w, r)
	case "/v1/drain":
		s.handleDrain(w, r)
	default:
		s.routeJob(w, r)
	}
}

// parseJobPath resolves the two parameterized jobs routes, for the server
// and the fleet router alike: GET /v1/jobs/{id} and POST
// /v1/jobs/{id}/cancel, where the {id} segment must be non-empty and
// slash-free, exactly as the previous mux patterns demanded. ok is false
// for every other path, which is a 404.
func parseJobPath(path string) (id string, cancel, ok bool) {
	rest, found := strings.CutPrefix(path, jobsPrefix)
	if !found {
		return "", false, false
	}
	if head, found := strings.CutSuffix(rest, "/cancel"); found && head != "" && !strings.Contains(head, "/") {
		return head, true, true
	}
	return rest, false, rest != "" && !strings.Contains(rest, "/")
}

func (s *Server) routeJob(w http.ResponseWriter, r *http.Request) {
	id, cancel, ok := parseJobPath(r.URL.Path)
	switch {
	case !ok:
		http.NotFound(w, r)
	case cancel:
		if requireMethod(w, r, http.MethodPost) {
			s.handleJobCancel(w, r, id)
		}
	default:
		if requireMethod(w, r, http.MethodGet) {
			s.handleJobGet(w, r, id)
		}
	}
}

// requireMethod enforces a method-specific route, answering 405 with an
// Allow header otherwise (the same contract mux method patterns gave).
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, "use %s", method)
		return false
	}
	return true
}
