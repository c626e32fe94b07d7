package serve

import (
	"context"
	"net/http"
	"time"

	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// localShard is the in-process ShardClient: the same direct calls into a
// shard's *Server the pre-seam router made, with identical wire behavior
// and zero allocations beyond the server's own. A fleet of localShards
// is exactly the single-process `-shards N` deployment.
type localShard struct {
	s *Server
}

func (c localShard) Extract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	c.s.finishExtract(w, r, sc)
}

func (c localShard) Lifecycle(w http.ResponseWriter, _ *http.Request, op store.Op, req AdminRequest) {
	c.s.finishLifecycle(w, op, req)
}

func (c localShard) Learn(w http.ResponseWriter, _ *http.Request, req LearnRequest, _ []byte) {
	c.s.finishLearn(w, req)
}

func (c localShard) Repair(w http.ResponseWriter, _ *http.Request, req RepairRequest, _ []byte) {
	c.s.finishRepair(w, req)
}

func (c localShard) Jobs(ctx context.Context) ([]jobs.Snapshot, error) {
	m := c.s.Jobs()
	if m == nil {
		return nil, nil
	}
	return m.List(), nil
}

func (c localShard) JobGet(w http.ResponseWriter, r *http.Request, id string) bool {
	m := c.s.Jobs()
	if m == nil {
		return false
	}
	if _, err := m.Get(id); err != nil {
		return false
	}
	c.s.handleJobGet(w, r, id)
	return true
}

func (c localShard) JobCancel(w http.ResponseWriter, r *http.Request, id string) bool {
	m := c.s.Jobs()
	if m == nil {
		return false
	}
	if _, err := m.Get(id); err != nil {
		return false
	}
	c.s.handleJobCancel(w, r, id)
	return true
}

func (c localShard) Metrics(ctx context.Context, now time.Time) (ShardReport, error) {
	m := c.s.metrics(now)
	return ShardReport{
		Gate: m.Gate, Jobs: m.Jobs, Sites: m.Sites, AuditStats: m.Audit,
		accum: c.s.Dispatcher().metricsAccumNow(now),
	}, nil
}

func (c localShard) Healthz(ctx context.Context) (HealthzResponse, error) {
	return c.s.healthz(), nil
}

func (c localShard) AuditView(ctx context.Context, n int) (AuditResponse, error) {
	return c.s.auditResponse(n), nil
}

func (c localShard) SetDraining(v bool) { c.s.SetDraining(v) }

func (c localShard) Drain(ctx context.Context) error { return c.s.Drain(ctx) }
