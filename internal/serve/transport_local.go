package serve

import (
	"context"
	"net/http"
	"time"

	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// absentShard is a partition this process does not serve: every partition
// but its own, on a -role shard process or behind Server.Handler over a
// ring. A request routed to it is answered 421 (ErrNotOwner) naming the
// owner — after the checks the home node makes ahead of ownership, so a
// malformed request reads the same whichever partition it names. An empty
// site, which the ring maps somewhere too, is the home node's to refuse:
// it never acts on one. The router's fan-outs skip absent partitions.
type absentShard struct {
	shard int     // the partition
	local int     // the partition home serves
	home  *Server // this process's node
}

func (c absentShard) refuse(w http.ResponseWriter, site string) {
	writeError(w, http.StatusMisdirectedRequest,
		"%v: site %q belongs to shard %d, this is shard %d", ErrNotOwner, site, c.shard, c.local)
}

func (c absentShard) extract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	if sc.site == "" {
		c.home.extract(w, r, sc)
		return
	}
	c.refuse(w, sc.site)
}

func (c absentShard) lifecycle(w http.ResponseWriter, _ *http.Request, op store.Op, req AdminRequest) {
	if admitLifecycle(w, op, req) {
		c.refuse(w, req.Site)
	}
}

func (c absentShard) maintain(w http.ResponseWriter, _ *http.Request, req LearnRequest, _ []byte, learn bool) {
	if c.home.admitMaintenance(w, req.Site, len(req.Pages), learn) {
		c.refuse(w, req.Site)
	}
}

func (absentShard) listJobs(context.Context) ([]jobs.Snapshot, error)         { return nil, nil }
func (absentShard) job(http.ResponseWriter, *http.Request, string, bool) bool { return false }
func (absentShard) metrics(context.Context, time.Time) (MetricsResponse, error) {
	return MetricsResponse{}, nil
}
func (absentShard) healthz(context.Context) (HealthzResponse, error) { return HealthzResponse{}, nil }
func (absentShard) auditView(context.Context, int) (AuditResponse, error) {
	return AuditResponse{}, nil
}
func (absentShard) SetDraining(bool)            {}
func (absentShard) Drain(context.Context) error { return nil }
