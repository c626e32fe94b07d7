package serve

import (
	"context"
	"net/http"
	"time"

	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// localShard is the in-process ShardClient: direct calls into the
// partition's node, with zero allocations beyond the node's own.
type localShard struct {
	s *Server
}

func (c localShard) Extract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	c.s.finishExtract(w, r, sc)
}

func (c localShard) Lifecycle(w http.ResponseWriter, _ *http.Request, op store.Op, req AdminRequest) {
	c.s.finishLifecycle(w, op, req)
}

func (c localShard) Maintain(w http.ResponseWriter, _ *http.Request, req LearnRequest, _ []byte, learn bool) {
	if learn {
		c.s.finishLearn(w, req)
	} else {
		c.s.finishRepair(w, req.repair())
	}
}

func (c localShard) Jobs(ctx context.Context) ([]jobs.Snapshot, error) {
	m := c.s.Jobs()
	if m == nil {
		return nil, nil
	}
	return m.List(), nil
}

func (c localShard) Job(w http.ResponseWriter, _ *http.Request, id string, cancel bool) bool {
	return c.s.finishJob(w, id, cancel)
}

func (c localShard) Metrics(ctx context.Context, now time.Time) (MetricsResponse, error) {
	return c.s.report(now), nil
}

func (c localShard) Healthz(ctx context.Context) (HealthzResponse, error) {
	return c.s.healthz(), nil
}

func (c localShard) AuditView(ctx context.Context, n int) (AuditResponse, error) {
	return c.s.auditResponse(n), nil
}

func (c localShard) SetDraining(v bool) { c.s.SetDraining(v) }

func (c localShard) Drain(ctx context.Context) error { return c.s.Drain(ctx) }

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

func (c absentShard) Extract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	if sc.site == "" {
		c.home.finishExtract(w, r, sc)
		return
	}
	c.refuse(w, sc.site)
}

func (c absentShard) Lifecycle(w http.ResponseWriter, _ *http.Request, op store.Op, req AdminRequest) {
	if admitLifecycle(w, op, req) {
		c.refuse(w, req.Site)
	}
}

func (c absentShard) Maintain(w http.ResponseWriter, _ *http.Request, req LearnRequest, _ []byte, learn bool) {
	if c.home.admitMaintenance(w, req.Site, len(req.Pages), learn) {
		c.refuse(w, req.Site)
	}
}

func (absentShard) Jobs(context.Context) ([]jobs.Snapshot, error)             { return nil, nil }
func (absentShard) Job(http.ResponseWriter, *http.Request, string, bool) bool { return false }
func (absentShard) Metrics(context.Context, time.Time) (MetricsResponse, error) {
	return MetricsResponse{}, nil
}
func (absentShard) Healthz(context.Context) (HealthzResponse, error) { return HealthzResponse{}, nil }
func (absentShard) AuditView(context.Context, int) (AuditResponse, error) {
	return AuditResponse{}, nil
}
func (absentShard) SetDraining(bool)            {}
func (absentShard) Drain(context.Context) error { return nil }
