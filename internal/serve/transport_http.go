package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// httpShard is the forwarding ShardClient: the shard is an independently
// booted wrapserved process, and every call to it — the four relaying ones
// and the five the front reads itself — is one exchange over the peer
// link (link.go), bounded by the caller's context and the call budget.
// Every request carries the front end's ring fingerprint (RingHashHeader)
// so the peer can refuse a topology mismatch. The front is a relay, not a
// second server: bodies go to the peer as the client sent them (it has
// only been peeked at for its route; the shard's decoder is the one that
// validates) plus the timeout_ms already inside them, which the shard
// clamps again; the peer's status, backpressure headers (Retry-After,
// Location) and body come back unchanged, streamed — 429 and 503 in
// particular are the shard's own words. A peer the link cannot reach, or
// whose answer breaks off before it can be passed on, is a 503 naming
// the shard and its address (ErrShardUnavailable).
type httpShard struct {
	shard int
	link  *peerLink
	// timeout bounds any single forwarded call when the incoming request
	// carries no tighter deadline.
	timeout time.Duration
	log     *log.Logger
}

// newHTTPShard builds the client for one peer with its own connection
// pool (connections to a dead peer must not poison another peer's).
func newHTTPShard(shardID int, addr, ringHash string, timeout time.Duration, lg *log.Logger) *httpShard {
	return &httpShard{shard: shardID, link: newPeerLink(addr, ringHash), timeout: timeout, log: lg}
}

// unavailable answers for a peer the front could not reach: 503 with the
// named per-shard error, so a dead process degrades the fleet to partial
// availability instead of a global failure.
func (c *httpShard) unavailable(w http.ResponseWriter, what string, err error) {
	writeError(w, http.StatusServiceUnavailable,
		"%v: shard %d (%s): %s: %v", ErrShardUnavailable, c.shard, c.link.addr, what, err)
}

// forward relays one request to the peer and the peer's answer to the
// client. body is sent as it is. A peer's 404 is held back when hide404
// is set — forward then reports false and has written nothing, so the
// router can ask another shard.
func (c *httpShard) forward(w http.ResponseWriter, r *http.Request, method, path string, body []byte, timeoutMS int, hide404 bool) bool {
	pc, err := c.link.send(r.Context(), method, path, body, clampTimeout(c.timeout, timeoutMS))
	if err != nil {
		c.unavailable(w, path, err)
		return true
	}
	if hide404 && pc.status == http.StatusNotFound {
		c.link.release(pc, pc.copyBody(io.Discard))
		return false
	}
	err = pc.relayTo(w)
	c.link.release(pc, err)
	if err != nil {
		// The status is out, so the failure cannot be a 503 any more. Ending
		// the handler normally would end the client's response as if it were
		// whole; under HTTPServer this panic drops the client's connection
		// instead (and logs nothing more). A handler driven directly, as
		// tests and the bench's in-process ladder do, just returns.
		if r.Context().Err() == nil {
			c.log.Printf("serve: shard %d (%s): %s: relay broke off mid-body: %v", c.shard, c.link.addr, path, err)
		}
		if abortable(r) {
			panic(http.ErrAbortHandler)
		}
	}
	return true
}

// fetch performs one exchange whose answer the front reads itself and
// returns the status and the whole body. GETs are retried once (see
// peerLink.send).
func (c *httpShard) fetch(ctx context.Context, method, path string, body []byte, budget time.Duration) (int, []byte, error) {
	pc, err := c.link.send(ctx, method, path, body, budget)
	if err != nil {
		return 0, nil, err
	}
	var buf bytes.Buffer
	err = pc.copyBody(&buf)
	status := pc.status
	c.link.release(pc, err)
	return status, buf.Bytes(), err
}

// getJSON performs an idempotent read and decodes the 200 body into v.
func (c *httpShard) getJSON(ctx context.Context, path string, v any) error {
	status, body, err := c.fetch(ctx, http.MethodGet, path, nil, c.timeout)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard %d (%s): GET %s: %d %s: %s", c.shard, c.link.addr, path,
			status, http.StatusText(status), strings.TrimSpace(string(body[:min(len(body), 512)])))
	}
	return json.Unmarshal(body, v)
}

func (c *httpShard) extract(w http.ResponseWriter, r *http.Request, sc *extractScratch) {
	c.forward(w, r, http.MethodPost, "/v1/extract", sc.body, sc.timeoutMS, false)
}

// lifecycle re-encodes the request the router decoded: a promote or
// rollback body is some sixty bytes, and decoding it with encoding/json
// at the front keeps that decoder's 400s where they were.
func (c *httpShard) lifecycle(w http.ResponseWriter, r *http.Request, op store.Op, req AdminRequest) {
	path := "/v1/promote"
	if op == store.OpRollback {
		path = "/v1/rollback"
	}
	body, _ := json.Marshal(req) // a string and an int: cannot fail
	c.forward(w, r, http.MethodPost, path, body, 0, false)
}

func (c *httpShard) maintain(w http.ResponseWriter, r *http.Request, req LearnRequest, body []byte, learn bool) {
	path := "/v1/repair"
	if learn {
		path = "/v1/learn"
	}
	c.forward(w, r, http.MethodPost, path, body, req.TimeoutMS, false)
}

func (c *httpShard) listJobs(ctx context.Context) ([]jobs.Snapshot, error) {
	var out []jobs.Snapshot
	if err := c.getJSON(ctx, "/v1/jobs", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// job relays GET /v1/jobs/{id}, or POST .../cancel. A peer 404 reports
// false so the router can keep looking; a transport failure is answered
// here (the job, if it exists, lives on an unreachable shard).
func (c *httpShard) job(w http.ResponseWriter, r *http.Request, id string, cancel bool) bool {
	method, path := http.MethodGet, jobsPrefix+id
	if cancel {
		method, path = http.MethodPost, path+"/cancel"
	}
	return c.forward(w, r, method, path, nil, 0, true)
}

func (c *httpShard) metrics(ctx context.Context, now time.Time) (MetricsResponse, error) {
	var m MetricsResponse
	if err := c.getJSON(ctx, "/metrics", &m); err != nil {
		return MetricsResponse{}, err
	}
	return m, nil
}

func (c *httpShard) healthz(ctx context.Context) (HealthzResponse, error) {
	_, body, err := c.fetch(ctx, http.MethodGet, "/healthz", nil, c.timeout)
	if err != nil {
		return HealthzResponse{}, err
	}
	// A draining shard answers 503 with the same body shape; both are a
	// reachable peer's truthful view.
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		return HealthzResponse{}, fmt.Errorf("shard %d (%s): healthz: %v", c.shard, c.link.addr, err)
	}
	return h, nil
}

func (c *httpShard) auditView(ctx context.Context, n int) (AuditResponse, error) {
	var a AuditResponse
	if err := c.getJSON(ctx, fmt.Sprintf("/v1/audit?n=%d", n), &a); err != nil {
		return AuditResponse{}, err
	}
	return a, nil
}

// SetDraining is a no-op over HTTP: a remote shard's readiness belongs
// to its own process; the front steers traffic away by flipping itself.
func (c *httpShard) SetDraining(bool) {}

// Drain asks the peer to run its job plane dry (POST /v1/drain). The
// front calls this after its own listener stopped accepting — the
// ordered fleet drain: front first, then shards. ctx's deadline, not the
// call budget, is how long the peer may take.
func (c *httpShard) Drain(ctx context.Context) error {
	budget, ms := c.timeout, 0
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		ms = int(budget / time.Millisecond)
	}
	req, _ := json.Marshal(DrainRequest{TimeoutMS: ms}) // one int: cannot fail
	status, body, err := c.fetch(ctx, http.MethodPost, "/v1/drain", req, budget)
	if err != nil {
		return fmt.Errorf("%w: shard %d (%s): drain: %v", ErrShardUnavailable, c.shard, c.link.addr, err)
	}
	var dr DrainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		return fmt.Errorf("shard %d (%s): drain: %v", c.shard, c.link.addr, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard %d (%s): drain: %d %s: %s", c.shard, c.link.addr, status, http.StatusText(status), dr.Error)
	}
	if dr.Error != "" {
		return fmt.Errorf("shard %d (%s): drain: %s", c.shard, c.link.addr, dr.Error)
	}
	return nil
}
