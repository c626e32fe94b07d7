package serve

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the latency histogram's bucket count: bucket i holds
// requests with latency in [2^(i-1), 2^i) microseconds, bucket 0 holds
// sub-microsecond requests and the last bucket is open-ended (~2.3 min and
// up is all the same kind of broken).
const histBuckets = 38

// latencyHist is a lock-free power-of-two latency histogram. Recording is
// one atomic add; quantiles are estimated from the bucket boundaries
// (geometric midpoint), which is plenty for a /metrics endpoint — the error
// is bounded by the bucket width, ~±41% of the value, and the shape
// (p50 vs p99 separation) survives exactly.
type latencyHist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	max     atomic.Int64 // microseconds
}

func bucketOf(d time.Duration) int {
	us := uint64(d.Microseconds())
	b := bits.Len64(us) // 0 for 0µs, 1 for 1µs, ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Record adds one request latency.
func (h *latencyHist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		old := h.max.Load()
		if us <= old || h.max.CompareAndSwap(old, us) {
			return
		}
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) in microseconds. The
// rank is the ceiling of q*total — the smallest k such that at least a q
// fraction of observations is <= the k-th — so p99 of 100 requests is the
// 99th-slowest, not the 98th: truncation would bias tail quantiles one
// bucket low exactly at small counts, where a histogram is already at its
// coarsest.
func (h *latencyHist) Quantile(q float64) float64 {
	var b [histBuckets]int64
	for i := range b {
		b[i] = h.buckets[i].Load()
	}
	return bucketQuantile(&b, h.count.Load(), q, float64(h.max.Load()))
}

// bucketQuantile is the quantile estimate over a plain bucket array —
// shared by the live per-site histogram above and the merged fleet
// accumulator below, so single-site and aggregated quantiles can never
// disagree on rank semantics.
func bucketQuantile(buckets *[histBuckets]int64, total int64, q, maxUS float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += buckets[i]
		if seen >= rank {
			// The midpoint of the bucket — [0,1) or [2^(i-1), 2^i) — but
			// never more than the slowest request there was: when every
			// request falls in one bucket, a p50 above the max is a lie.
			mid := 0.5
			if i > 0 {
				mid = 1.5 * float64(int64(1)<<(i-1))
			}
			return math.Min(mid, maxUS)
		}
	}
	return maxUS
}

// rateSlots sizes the QPS ring; rateWindow is the trailing averaging
// window. Slots beyond the window absorb clock-skewed stragglers instead
// of corrupting the live window.
const (
	rateSlots  = 16
	rateWindow = 10 // seconds
)

// rateRing measures a trailing requests-per-second rate with one slot per
// wall-clock second. Ticks are two atomic ops; a tick racing a second
// boundary can miscount by a request or two, which monitoring tolerates.
type rateRing struct {
	sec [rateSlots]atomic.Int64
	n   [rateSlots]atomic.Int64
	// start is the first tick's wall-clock second: the ring cannot claim
	// coverage of seconds before it existed, so the denominator below is
	// bounded by the ring's own uptime.
	start atomic.Int64
	// last is the most recent tick's second; resume marks where coverage
	// restarts after the ring went dark for longer than the whole window
	// (at that point no in-window second predates the gap, so averaging
	// across the empty window would just dilute the resumed traffic).
	last   atomic.Int64
	resume atomic.Int64
}

// Tick records n events at time now.
func (r *rateRing) Tick(now time.Time, n int64) {
	sec := now.Unix()
	// Track the earliest tick second (ticks may arrive slightly out of
	// order around second boundaries); the fast path is one load.
	for {
		old := r.start.Load()
		if old != 0 && old <= sec {
			break
		}
		if r.start.CompareAndSwap(old, sec) {
			break
		}
	}
	// Track the latest tick second, and restart coverage when the ring
	// was dark for longer than the window. Races around the boundary can
	// misplace resume by a second; monitoring tolerates that.
	for {
		old := r.last.Load()
		if old >= sec {
			break
		}
		if r.last.CompareAndSwap(old, sec) {
			if old != 0 && sec-old > rateWindow {
				r.resume.Store(sec)
			}
			break
		}
	}
	i := int(sec % rateSlots)
	if old := r.sec[i].Load(); old != sec && r.sec[i].CompareAndSwap(old, sec) {
		r.n[i].Store(0)
	}
	r.n[i].Add(n)
}

// Rate returns the mean events/sec over the trailing window's complete
// seconds (the current, partial second is excluded so the rate doesn't dip
// at every second boundary). The denominator is the number of in-window
// seconds actually covered, capped at rateWindow — never the full window
// blindly: dividing by 10 when only 3 seconds of data exist under-reports
// early-uptime QPS by 70%. Coverage runs from the latest of window start,
// first tick (the ring cannot cover seconds before it existed) and the
// resume watermark (traffic restarting after a dark gap longer than the
// whole window — nothing in the window predates such a gap, so the gap's
// emptiness must not dilute the resumed rate). A lull *shorter* than the
// window, by contrast, leaves earlier in-window traffic standing, and its
// idle seconds count as the genuine zeros they are.
func (r *rateRing) Rate(now time.Time) float64 {
	nowSec := now.Unix()
	start := r.start.Load()
	if start == 0 || nowSec <= start {
		// No ticks yet, or no complete second of data: nothing to average.
		return 0
	}
	var total int64
	for i := 0; i < rateSlots; i++ {
		sec := r.sec[i].Load()
		if sec >= nowSec-rateWindow && sec < nowSec {
			total += r.n[i].Load()
		}
	}
	from := nowSec - rateWindow
	if start > from {
		from = start
	}
	if resume := r.resume.Load(); resume > from {
		from = resume
	}
	covered := nowSec - from
	if covered < 1 {
		covered = 1
	}
	if covered > rateWindow {
		covered = rateWindow
	}
	return float64(total) / float64(covered)
}

// SiteMetrics is one site's serving-side request ledger: request and page
// counts, extraction throughput, admission-independent error count, a
// latency histogram and a trailing QPS ring. All paths are atomic; the
// ledger sits on the request hot path.
type SiteMetrics struct {
	requests  atomic.Int64
	pages     atomic.Int64
	pageFails atomic.Int64
	records   atomic.Int64
	errors    atomic.Int64 // site-level request errors (unknown site, ...)
	latency   latencyHist
	qps       rateRing
}

// observe records one completed extraction request.
func (m *SiteMetrics) observe(e *Extraction) {
	m.requests.Add(1)
	m.qps.Tick(time.Now(), 1)
	m.latency.Record(e.Elapsed)
	m.pages.Add(int64(len(e.Results)))
	for i := range e.Results {
		if e.Results[i].Err != nil {
			m.pageFails.Add(1)
		} else {
			m.records.Add(int64(len(e.Results[i].Texts)))
		}
	}
}

// MetricsSnapshot is a point-in-time view of one site's ledger.
type MetricsSnapshot struct {
	Requests  int64 `json:"requests"`
	Pages     int64 `json:"pages"`
	PageFails int64 `json:"page_failures"`
	Records   int64 `json:"records"`
	Errors    int64 `json:"request_errors"`
	// QPS is the trailing-10s request rate.
	QPS float64 `json:"qps"`
	// Latency quantiles are estimated from a power-of-two histogram, in
	// milliseconds.
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
}

// WireAccum merges per-site ledgers into one aggregate, and is that
// aggregate on the wire: every /metrics carries its process's as "accum",
// the bucket-level histogram a front end needs to merge fleet quantiles
// correctly. Latency is merged at the bucket level — summing histograms and
// then taking quantiles of the combined population — because quantiles
// themselves do not compose: averaging per-site p99s answers "what is the
// p99 of an average site", not "what is the fleet's p99". QPS rings sum
// (each site's trailing rate is an independent share of the fleet's),
// counters add, max is max. A peer from a different build whose
// latency_buckets is longer or shorter decodes into the overlap; its
// counters still merge.
type WireAccum struct {
	Requests  int64 `json:"requests"`
	Pages     int64 `json:"pages"`
	PageFails int64 `json:"page_failures"`
	Records   int64 `json:"records"`
	Errors    int64 `json:"request_errors"`
	// Buckets is the power-of-two latency histogram.
	Buckets [histBuckets]int64 `json:"latency_buckets"`
	Count   int64              `json:"latency_count"`
	SumUS   int64              `json:"latency_sum_us"`
	MaxUS   int64              `json:"latency_max_us"`
	QPS     float64            `json:"qps"`
}

// addSite folds one live site ledger into the accumulator. The reads are
// unsynchronized atomic loads; a request landing mid-fold skews one counter
// by one, which /metrics tolerates.
func (a *WireAccum) addSite(m *SiteMetrics, now time.Time) {
	a.Requests += m.requests.Load()
	a.Pages += m.pages.Load()
	a.PageFails += m.pageFails.Load()
	a.Records += m.records.Load()
	a.Errors += m.errors.Load()
	for i := range a.Buckets {
		a.Buckets[i] += m.latency.buckets[i].Load()
	}
	a.Count += m.latency.count.Load()
	a.SumUS += m.latency.sum.Load()
	a.MaxUS = max(a.MaxUS, m.latency.max.Load())
	a.QPS += m.qps.Rate(now)
}

// add folds another accumulator in — how per-shard aggregates combine
// into the fleet-wide one without touching the site ledgers twice.
func (a *WireAccum) add(b *WireAccum) {
	a.Requests += b.Requests
	a.Pages += b.Pages
	a.PageFails += b.PageFails
	a.Records += b.Records
	a.Errors += b.Errors
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	a.Count += b.Count
	a.SumUS += b.SumUS
	a.MaxUS = max(a.MaxUS, b.MaxUS)
	a.QPS += b.QPS
}

// snapshot renders the accumulated population in the same wire shape as
// a single site's snapshot.
func (a *WireAccum) snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Requests:     a.Requests,
		Pages:        a.Pages,
		PageFails:    a.PageFails,
		Records:      a.Records,
		Errors:       a.Errors,
		QPS:          a.QPS,
		LatencyP50Ms: bucketQuantile(&a.Buckets, a.Count, 0.50, float64(a.MaxUS)) / 1000,
		LatencyP90Ms: bucketQuantile(&a.Buckets, a.Count, 0.90, float64(a.MaxUS)) / 1000,
		LatencyP99Ms: bucketQuantile(&a.Buckets, a.Count, 0.99, float64(a.MaxUS)) / 1000,
		LatencyMaxMs: float64(a.MaxUS) / 1000,
	}
	if a.Count > 0 {
		s.LatencyMeanMs = float64(a.SumUS) / float64(a.Count) / 1000
	}
	return s
}

// Snapshot reads the ledger: an aggregate of one.
func (m *SiteMetrics) Snapshot() MetricsSnapshot {
	var a WireAccum
	a.addSite(m, time.Now())
	return a.snapshot()
}
