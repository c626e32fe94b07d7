package serve

import (
	"net/http"
	"strconv"
	"strings"

	"autowrap/internal/shard"
	"autowrap/internal/store"
)

// Handler returns the route table over this one node: the ShardRouter
// whose ring is cfg.Ring — a ring of one when that is nil — with this
// node serving partition cfg.Shard (partition 0 of a ring of one) and
// every other partition answered 421. It is built on the first call;
// every call returns the same router.
func (s *Server) Handler() http.Handler {
	s.routerOnce.Do(func() {
		ring, local := s.cfg.Ring, s.cfg.Shard
		if ring == nil {
			ring, local = shard.NewRing(1, shard.DefaultVNodes), 0
		}
		// NewServer checked that local is a partition of ring, so build
		// serves one and the router cannot fail.
		s.router, _ = NewShardRouter(ring, func(k int) (*Server, error) {
			if k != local {
				return nil, nil
			}
			return s, nil
		})
	})
	return s.router.Handler()
}

// Handler returns the route table: a precompiled static dispatch over the
// fixed route set instead of an http.ServeMux. Every request is routed
// with one switch on the path (plus a prefix check for the two
// parameterized jobs routes) — no per-request pattern matching, no
// intermediate allocations. Unknown paths 404, a known path with the wrong
// method 405 with an Allow header.
func (f *ShardRouter) Handler() http.Handler { return http.HandlerFunc(f.route) }

// jobsPrefix is the path prefix of the two parameterized routes,
// GET /v1/jobs/{id} and POST /v1/jobs/{id}/cancel.
const jobsPrefix = "/v1/jobs/"

// route is the one route table, the same for every role:
//
//	POST /v1/extract   extract records from one page or a batch
//	GET  /healthz      liveness + readiness (503 while draining)
//	GET  /metrics      per-site QPS/latency/health + gate + job counters
//	GET  /v1/sites     serving state of every site
//	POST /v1/promote   make a stored version the serving one (hot-swap)
//	POST /v1/rollback  revert to the previously promoted version
//	POST /v1/learn     enqueue a learn job (202 + job id): learn a site
//	                   from posted pages or a server-side corpus dir,
//	                   validate, promote, hot-swap
//	POST /v1/repair    enqueue a drift-repair job (202 + job id):
//	                   re-learn from posted pages, validate, promote on
//	                   a strict held-out win
//	GET  /v1/audit     the lifecycle ledger's counters + newest records
//	GET  /v1/jobs      every retained job, submission order
//	GET  /v1/jobs/{id} one job's state/progress/result
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	POST /v1/drain     stop admitting jobs and run the job planes dry
func (f *ShardRouter) route(w http.ResponseWriter, r *http.Request) {
	// Ring agreement is checked once, ahead of every route: a request
	// pinned to a different ring must not reach any partition.
	if !f.ringAgrees(w, r) {
		return
	}
	switch r.URL.Path {
	case "/v1/extract":
		f.handleExtract(w, r)
	case "/healthz":
		f.handleHealthz(w, r)
	case "/metrics":
		f.handleMetrics(w, r)
	case "/v1/sites":
		f.handleSites(w, r)
	case "/v1/promote":
		f.handleLifecycle(w, r, store.OpPromote)
	case "/v1/rollback":
		f.handleLifecycle(w, r, store.OpRollback)
	case "/v1/repair":
		f.handleMaintenance(w, r, false)
	case "/v1/learn":
		f.handleMaintenance(w, r, true)
	case "/v1/audit":
		if requireMethod(w, r, http.MethodGet) {
			f.handleAudit(w, r)
		}
	case "/v1/jobs":
		if requireMethod(w, r, http.MethodGet) {
			f.handleJobs(w, r)
		}
	case "/v1/drain":
		f.handleDrain(w, r)
	default:
		f.routeJob(w, r)
	}
}

// ringAgrees enforces per-request ring agreement: a request pinned (via
// RingHashHeader) to a different ring fingerprint is refused with 503 and
// the named mismatch error, naming this process by its partition and the
// address the request reached, before it can touch the wrong partition.
// Requests without the header — clients and direct operator calls — pass;
// ownership is still checked per site.
func (f *ShardRouter) ringAgrees(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(RingHashHeader)
	if h == "" || h == f.ring.Fingerprint() {
		return true
	}
	who := "this server"
	if f.self >= 0 {
		who = "shard " + strconv.Itoa(f.self)
	}
	writeError(w, http.StatusServiceUnavailable, "%v: request pinned to ring %s, %s (%s) built ring %s",
		ErrRingMismatch, h, who, r.Host, f.ring.Fingerprint())
	return false
}

// parseJobPath resolves the two parameterized jobs routes: GET
// /v1/jobs/{id} and POST /v1/jobs/{id}/cancel, where the {id} segment must
// be non-empty and slash-free. ok is false for every other path, which is
// a 404.
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

// requireMethod enforces a method-specific route, answering 405 with an
// Allow header otherwise.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, "use %s", method)
		return false
	}
	return true
}
