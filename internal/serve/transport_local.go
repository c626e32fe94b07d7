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
	if op == store.OpRollback {
		c.s.finishRollback(w, req)
		return
	}
	c.s.finishPromote(w, req)
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
	rep := ShardReport{
		Gate:  c.s.Gate().Snapshot(),
		Sites: c.s.Dispatcher().Status(),
		accum: c.s.Dispatcher().metricsAccumNow(now),
	}
	if m := c.s.Jobs(); m != nil {
		jm := m.Metrics()
		rep.Jobs = &jm
	}
	if led := c.s.Audit(); led != nil {
		st := led.Stats()
		rep.AuditStats = &st
	}
	return rep, nil
}

func (c localShard) Healthz(ctx context.Context) (HealthzResponse, error) {
	resp := HealthzResponse{
		Status:    "ok",
		Sites:     c.s.Dispatcher().Store().Len(),
		UptimeSec: int64(time.Since(c.s.started).Seconds()),
	}
	if c.s.draining.Load() {
		resp.Status = "draining"
	}
	return resp, nil
}

func (c localShard) AuditView(ctx context.Context, n int) (AuditResponse, error) {
	return c.s.auditResponse(n), nil
}

func (c localShard) SetDraining(v bool) { c.s.SetDraining(v) }

func (c localShard) Drain(ctx context.Context) error { return c.s.Drain(ctx) }
