// The shard transport seam. A ShardRouter never talks to a partition
// directly: every path — the extract hot path, lifecycle mutations, the
// observation fan-outs and the drain — goes through a ShardClient, and
// the three implementations decide what a partition is here. The node
// itself, *Server, is an in-process partition (direct calls, zero extra
// allocations); httpShard relays to an independently booted shard process
// over the peer link (link.go); absentShard is a partition this process
// does not serve (421). The router's logic — ring lookup, one decode per
// request, bucket-level metric merging, ordered drain — is written once
// against the seam and cannot diverge between deployments.

package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// RingHashHeader carries the front end's ring fingerprint on every
// forwarded request. Every router compares it against its own ring and
// refuses mismatches with ErrRingMismatch, so a front and a peer that
// disagree on the assignment function can never silently serve the wrong
// partition.
const RingHashHeader = "X-Ring-Hash"

var (
	// ErrRingMismatch is a process refusing a request pinned to a
	// different ring fingerprint (503): the front and the shard were
	// booted with different shard counts, vnode counts, or ring versions.
	ErrRingMismatch = errors.New("ring agreement mismatch")
	// ErrNotOwner is a shard refusing a site the ring assigns to a
	// different shard (421): the request was routed — or aimed directly —
	// at the wrong partition.
	ErrNotOwner = errors.New("shard does not own site")
	// ErrShardUnavailable is the front end failing to reach a shard's
	// process (503): the fleet degrades to partial availability, and the
	// error names the shard and peer so the outage is attributable.
	ErrShardUnavailable = errors.New("shard unavailable")
)

// ShardClient is the transport seam between the router and one
// partition, one method per job. Write-path methods (extract, lifecycle,
// maintain, job) answer on the ResponseWriter themselves — passthrough
// semantics, so a shard's 429/503 backpressure and error bodies reach
// the client unchanged — and take the client's *http.Request, whose
// context bounds them: a client that hangs up, or a front shutting down,
// ends the call. Read-path methods return data for the router to merge.
// Implementations: *Server (in-process), httpShard (forwarded) and
// absentShard (not served here); only this package implements or calls
// the unexported methods, and SetDraining and Drain are the node's own
// public ones. The body-carrying methods are handed the body both ways,
// decoded and as bytes, because the two read different halves: an
// in-process node serves what the router decoded, a peer is sent the
// client's bytes and decodes them itself.
type ShardClient interface {
	// extract serves the extract request the router read into sc and
	// routed by sc.site. In front of in-process partitions the router
	// decoded it (sc holds the pages; sc.body is spent); in front of
	// forwarded ones it only peeked — sc.site and sc.timeoutMS are set and
	// sc.body is still the client's bytes.
	extract(w http.ResponseWriter, r *http.Request, sc *extractScratch)
	// lifecycle applies a promote (store.OpPromote) or rollback
	// (store.OpRollback).
	lifecycle(w http.ResponseWriter, r *http.Request, op store.Op, req AdminRequest)
	// maintain enqueues a learn job (learn set) or a repair job on the
	// shard's job plane. req is what the router decoded: everything in
	// front of in-process partitions, Site and TimeoutMS alone in front of
	// forwarded ones, where body is the client's bytes (valid until the
	// method returns).
	maintain(w http.ResponseWriter, r *http.Request, req LearnRequest, body []byte, learn bool)
	// listJobs lists the shard's retained jobs. job answers GET
	// /v1/jobs/{id}, or its cancel, reporting false when the shard does not
	// know the job (the router then tries elsewhere or answers 404).
	listJobs(ctx context.Context) ([]jobs.Snapshot, error)
	job(w http.ResponseWriter, r *http.Request, id string, cancel bool) bool
	// metrics returns the shard's /metrics contribution — Gate, Jobs,
	// Audit, Accum (bucket-level, so merged quantiles come from the merged
	// population) and Sites — for the router to merge; healthz its
	// liveness view; auditView its slice of the lifecycle ledger (n caps
	// records).
	metrics(ctx context.Context, now time.Time) (MetricsResponse, error)
	healthz(ctx context.Context) (HealthzResponse, error)
	auditView(ctx context.Context, n int) (AuditResponse, error)
	// SetDraining flips the shard's readiness when the shard shares the
	// router's process; a remote shard's readiness is its own process's.
	SetDraining(v bool)
	// Drain quiesces the shard's job plane: queued jobs run to
	// completion, bounded by ctx.
	Drain(ctx context.Context) error
}

// RingInfo is a process's half of the ring-agreement handshake, reported
// on /healthz: the ring fingerprint plus the parameters behind it and the
// partition this process serves — -1 unless it serves exactly one, in
// process. A front end checks it on connect; per-request agreement rides
// on RingHashHeader.
type RingInfo struct {
	Hash   string `json:"hash"`
	Shards int    `json:"shards"`
	VNodes int    `json:"vnodes"`
	Shard  int    `json:"shard"`
}

// DrainRequest is the POST /v1/drain body. TimeoutMS bounds how long the
// process waits for queued jobs to run dry before canceling the
// remainder; it may shorten the server-side default, never extend it.
type DrainRequest struct {
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// DrainResponse reports a drain's outcome: the job planes' queued work
// ran to completion (jobs_quiesced) or was cut off by the deadline (error
// carries why). The process keeps serving in-flight work either way;
// stopping it is its owner's call.
type DrainResponse struct {
	Status       string `json:"status"` // always "draining"
	JobsQuiesced bool   `json:"jobs_quiesced"`
	Error        string `json:"error,omitempty"`
}
