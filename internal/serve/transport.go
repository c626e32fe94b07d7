// The fleet's shard transport seam. A ShardRouter never talks to a shard
// directly: every path — the extract hot path, lifecycle mutations, the
// observation fan-outs and the drain — goes through a ShardClient, and
// the two implementations decide what a "shard" is. localShard wraps an
// in-process *Server with the same direct calls the router always made
// (byte-identical wire behavior, zero extra allocations); httpShard
// relays to an independently booted shard process over the peer link
// (link.go). The router's logic — ring lookup, one decode per request,
// bucket-level metric merging, ordered drain — is written once against
// the seam and cannot diverge between the two deployments.

package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// RingHashHeader carries the front end's ring fingerprint on every
// forwarded request. A shard-role server compares it against its own
// ring and refuses mismatches with ErrRingMismatch, so a front and a
// peer that disagree on the assignment function can never silently serve
// the wrong partition.
const RingHashHeader = "X-Ring-Hash"

var (
	// ErrRingMismatch is a shard refusing a request pinned to a different
	// ring fingerprint (503): the front and the shard were booted with
	// different shard counts, vnode counts, or ring versions.
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

// ShardReport is one shard's contribution to the fleet /metrics merge:
// the site-ledger accumulator (bucket-level, so fleet quantiles come
// from the merged population, never from averaging per-shard quantiles),
// the gate and job counters, and the shard's site rows.
type ShardReport struct {
	Gate GateSnapshot
	Jobs *jobs.Metrics
	// Sites is the shard's partition, one row per site.
	Sites []SiteStatus
	// AuditStats is the shard's ledger counters. A forwarding front sums
	// them (each shard process owns its own ledger file); an in-process
	// fleet ignores them and reads the shared ledger once.
	AuditStats *audit.Stats
	accum      metricsAccum
}

// ShardClient is the transport seam between the fleet router and one
// shard. Write-path methods (Extract, Lifecycle, Learn, Repair, JobGet,
// JobCancel) answer on the ResponseWriter themselves — passthrough
// semantics, so a shard's 429/503 backpressure and error bodies reach
// the client unchanged — and take the client's *http.Request, whose
// context bounds them: a client that hangs up, or a front shutting down,
// ends the call. Read-path methods return data for the router to merge.
// Implementations: localShard (in-process) and httpShard (forwarding
// front end). The body-carrying methods are handed the body both ways,
// decoded and as bytes, because the two read different halves: an
// in-process shard serves what the router decoded, a peer is sent the
// client's bytes and decodes them itself.
type ShardClient interface {
	// Extract serves the extract request the router read into sc and
	// routed by sc.site. The router of an in-process fleet decoded it (sc
	// holds the pages; sc.body is spent); a forwarding front only peeked —
	// sc.site and sc.timeoutMS are set and sc.body is still the client's
	// bytes.
	Extract(w http.ResponseWriter, r *http.Request, sc *extractScratch)
	// Lifecycle applies a promote (store.OpPromote) or rollback
	// (store.OpRollback).
	Lifecycle(w http.ResponseWriter, r *http.Request, op store.Op, req AdminRequest)
	// Learn and Repair enqueue maintenance jobs on the shard's job plane.
	// req is what the router decoded: everything in an in-process fleet,
	// Site and TimeoutMS alone at a forwarding front, where body is the
	// client's bytes (valid until the method returns).
	Learn(w http.ResponseWriter, r *http.Request, req LearnRequest, body []byte)
	Repair(w http.ResponseWriter, r *http.Request, req RepairRequest, body []byte)
	// Jobs lists the shard's retained jobs. JobGet and JobCancel resolve
	// one job by ID, reporting false when the shard does not know it (the
	// router then tries elsewhere or answers 404).
	Jobs(ctx context.Context) ([]jobs.Snapshot, error)
	JobGet(w http.ResponseWriter, r *http.Request, id string) bool
	JobCancel(w http.ResponseWriter, r *http.Request, id string) bool
	// Metrics returns the shard's merged ledgers for the fleet /metrics
	// aggregation; Healthz its liveness view; AuditView its slice of the
	// lifecycle ledger (n caps records).
	Metrics(ctx context.Context, now time.Time) (ShardReport, error)
	Healthz(ctx context.Context) (HealthzResponse, error)
	AuditView(ctx context.Context, n int) (AuditResponse, error)
	// SetDraining flips the shard's readiness when the shard shares the
	// router's process; a remote shard's readiness is its own process's.
	SetDraining(v bool)
	// Drain quiesces the shard's job plane: queued jobs run to
	// completion, bounded by ctx.
	Drain(ctx context.Context) error
}

// WireAccum is a shard's site-ledger accumulator on the wire — the
// bucket-level histogram a front end needs to merge fleet quantiles
// correctly. A shard-role server attaches it to /metrics (the "accum"
// field); it is absent everywhere else.
type WireAccum struct {
	Requests  int64 `json:"requests"`
	Pages     int64 `json:"pages"`
	PageFails int64 `json:"page_failures"`
	Records   int64 `json:"records"`
	Errors    int64 `json:"request_errors"`
	// Buckets is the power-of-two latency histogram (histBuckets entries).
	Buckets []int64 `json:"latency_buckets"`
	Count   int64   `json:"latency_count"`
	SumUS   int64   `json:"latency_sum_us"`
	MaxUS   int64   `json:"latency_max_us"`
	QPS     float64 `json:"qps"`
}

// wireAccumFrom exports an accumulator for a shard's /metrics.
func wireAccumFrom(a *metricsAccum) *WireAccum {
	w := &WireAccum{
		Requests:  a.requests,
		Pages:     a.pages,
		PageFails: a.pageFails,
		Records:   a.records,
		Errors:    a.errors,
		Buckets:   make([]int64, histBuckets),
		Count:     a.count,
		SumUS:     a.sum,
		MaxUS:     a.max,
		QPS:       a.qps,
	}
	copy(w.Buckets, a.buckets[:])
	return w
}

// toAccum is the inverse, rebuilding the mergeable form on the front end.
// A short or overlong bucket slice (a peer from a different build) keeps
// whatever overlaps; counters still merge.
func (w *WireAccum) toAccum() metricsAccum {
	a := metricsAccum{
		requests:  w.Requests,
		pages:     w.Pages,
		pageFails: w.PageFails,
		records:   w.Records,
		errors:    w.Errors,
		count:     w.Count,
		sum:       w.SumUS,
		max:       w.MaxUS,
		qps:       w.QPS,
	}
	copy(a.buckets[:], w.Buckets)
	return a
}

// RingInfo is a shard-role server's half of the ring-agreement handshake,
// reported on /healthz: the ring fingerprint plus the parameters behind
// it and the partition this process serves. A front end checks it on
// connect; per-request agreement rides on RingHashHeader.
type RingInfo struct {
	Hash   string `json:"hash"`
	Shards int    `json:"shards"`
	VNodes int    `json:"vnodes"`
	Shard  int    `json:"shard"`
}

// DrainRequest is the POST /v1/drain body (shard role only). TimeoutMS
// bounds how long the shard waits for queued jobs to run dry before
// canceling the remainder; it may shorten the server-side default, never
// extend it.
type DrainRequest struct {
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// DrainResponse reports a shard's drain outcome: the job plane's queued
// work ran to completion (jobs_quiesced) or was cut off by the deadline
// (error carries why). The shard keeps serving in-flight work either
// way; stopping the process is its owner's call.
type DrainResponse struct {
	Status       string `json:"status"` // always "draining"
	JobsQuiesced bool   `json:"jobs_quiesced"`
	Error        string `json:"error,omitempty"`
}
