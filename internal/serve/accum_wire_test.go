package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autowrap/internal/shard"
)

// fixedLedger is one site's ledger in a state that does not depend on the
// clock: eight latencies spread over the histogram and four seconds of
// ticks before now, 2.5 requests a second.
func fixedLedger() (*SiteMetrics, time.Time) {
	now := time.Unix(1_800_000_000, 0)
	m := new(SiteMetrics)
	m.requests.Add(12)
	m.pages.Add(20)
	m.pageFails.Add(2)
	m.records.Add(97)
	m.errors.Add(3)
	for _, d := range []time.Duration{300 * time.Nanosecond, 3 * time.Microsecond, 40 * time.Microsecond,
		700 * time.Microsecond, 2 * time.Millisecond, 90 * time.Millisecond, 5 * time.Second, 10 * time.Minute} {
		m.latency.Record(d)
	}
	for s := 1; s <= 4; s++ {
		m.qps.Tick(now.Add(-time.Duration(s)*time.Second), int64(s))
	}
	return m, now
}

// The accum objects of fixedLedger, alone and as a front merges two shards
// that each report it: keys, key order and a 38-entry latency_buckets, as
// /metrics has always written them.
const (
	siteAccumJSON = `{"requests":12,"pages":20,"page_failures":2,"records":97,"request_errors":3,` +
		`"latency_buckets":[1,0,1,0,0,0,1,0,0,0,1,1,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0],` +
		`"latency_count":8,"latency_sum_us":605092743,"latency_max_us":600000000,"qps":2.5}`
	fleetAccumJSON = `{"requests":24,"pages":40,"page_failures":4,"records":194,"request_errors":6,` +
		`"latency_buckets":[2,0,2,0,0,0,2,0,0,0,2,2,0,0,0,0,0,2,0,0,0,0,0,2,0,0,0,0,0,0,2,0,0,0,0,0,0,0],` +
		`"latency_count":16,"latency_sum_us":1210185486,"latency_max_us":600000000,"qps":5}`
)

// peerFront is a forwarding front over one scripted peer per body, each
// answering every request with its body as a 200.
func peerFront(t *testing.T, bodies ...string) *ShardRouter {
	t.Helper()
	var peers []string
	for _, body := range bodies {
		p := newScriptedPeer(t, "127.0.0.1:0", func(int, *http.Request, []byte) peerAnswer {
			return peerAnswer{raw: okAnswer(body)}
		})
		peers = append(peers, p.addr())
	}
	fr, err := NewForwardRouter(shard.NewRing(len(peers), 64), peers, ForwardOptions{SkipHandshake: true, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestMetricsAccumWireShape pins the "accum" object of /metrics byte for
// byte: a site ledger folded into the accumulator, and a front's merge of
// two shards' accumulators as its own /metrics writes it.
func TestMetricsAccumWireShape(t *testing.T) {
	m, now := fixedLedger()
	var a WireAccum
	a.addSite(m, now)
	got, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != siteAccumJSON {
		t.Fatalf("site accum encodes as\n%s\nwant\n%s", got, siteAccumJSON)
	}

	body := `{"accum":` + siteAccumJSON + `}`
	fr := peerFront(t, body, body)
	rec := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var resp struct {
		Accum json.RawMessage `json:"accum"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/metrics: %v: %s", err, rec.Body)
	}
	if string(resp.Accum) != fleetAccumJSON {
		t.Fatalf("front's merged accum is\n%s\nwant\n%s", resp.Accum, fleetAccumJSON)
	}
}

// TestPeerAccumOtherBucketCount: a peer from a build with more or fewer
// latency buckets is merged over the overlap — a longer histogram's extra
// buckets dropped, a shorter one's missing buckets zero — and every counter
// comes through httpShard.metrics whole.
func TestPeerAccumOtherBucketCount(t *testing.T) {
	for _, n := range []int{40, 30} {
		buckets := make([]string, n)
		var want [histBuckets]int64
		for i := range buckets {
			buckets[i] = "1"
			if i < histBuckets {
				want[i] = 1
			}
		}
		body := `{"accum":{"requests":5,"pages":6,"page_failures":1,"records":9,"request_errors":2,` +
			`"latency_buckets":[` + strings.Join(buckets, ",") + `],` +
			`"latency_count":5,"latency_sum_us":700,"latency_max_us":300,"qps":1.5}}`
		fr := peerFront(t, body)
		rep, err := fr.clients[0].metrics(context.Background(), time.Now())
		if err != nil {
			t.Fatalf("%d buckets: %v", n, err)
		}
		wantAccum := WireAccum{Requests: 5, Pages: 6, PageFails: 1, Records: 9, Errors: 2,
			Buckets: want, Count: 5, SumUS: 700, MaxUS: 300, QPS: 1.5}
		if rep.Accum != wantAccum {
			t.Fatalf("%d buckets: accum = %+v, want %+v", n, rep.Accum, wantAccum)
		}
	}
}

// TestFrontAuditKeepsNewestN: a front over two shard processes merges their
// ledgers' records by time and, as one ledger's Recent(n) does, returns the
// newest n of them, oldest first, while the counters sum over both.
func TestFrontAuditKeepsNewestN(t *testing.T) {
	ledger := func(shard int, times ...int64) string {
		var recs []string
		for i, ms := range times {
			recs = append(recs, fmt.Sprintf(`{"seq":%d,"time_unix_ms":%d,"shard":%d,"event":"promote","prev":"","hash":""}`, i+1, ms, shard))
		}
		return fmt.Sprintf(`{"enabled":true,"stats":{"records":%d,"events":%d,"last_seq":%d},"records":[%s]}`,
			len(times), len(times), len(times), strings.Join(recs, ","))
	}
	fr := peerFront(t, ledger(0, 10, 30, 50), ledger(1, 20, 40, 60))
	rec := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/audit?n=4", nil))
	var resp AuditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/v1/audit: %v: %s", err, rec.Body)
	}
	var got []int64
	for _, r := range resp.Records {
		got = append(got, r.TimeMS)
	}
	if want := []int64{30, 40, 50, 60}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("?n=4 over two ledgers of 3 returned records at %v, want %v", got, want)
	}
	if resp.Stats.Records != 6 || resp.Stats.LastSeq != 3 {
		t.Fatalf("merged stats = %+v, want 6 records, last seq 3", resp.Stats)
	}
}
