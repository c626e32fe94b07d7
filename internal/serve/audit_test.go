package serve_test

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"autowrap/internal/audit"
	"autowrap/internal/serve"
	"autowrap/internal/serve/servetest"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/store/logstore"
	"autowrap/internal/testutil/leakcheck"
)

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return decode[T](t, resp)
}

// auditServer builds a single server over the two-version store with a
// log backend and a live ledger, both rooted in a temp dir.
func auditServer(t *testing.T) (*servetest.Server, *store.Store, string, string) {
	t.Helper()
	leakcheck.Check(t)
	dir := t.TempDir()
	st := twoVersionStore(t)
	logDir := filepath.Join(dir, "wrappers.log")
	lb, err := logstore.Open(logDir, logstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.SeedFrom(st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	auditPath := filepath.Join(dir, "audit.jsonl")
	led, err := audit.Open(auditPath, audit.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	srv, err := serve.NewServer(serve.ServerConfig{
		Dispatcher: serve.NewDispatcher(st, serve.Options{}),
		Backend:    lb,
		Shard:      0,
		Audit:      led,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, st, logDir, auditPath
}

// TestHTTPAuditLifecycleEvents pins the end-to-end audit trail: promote
// and rollback over HTTP land in the ledger as chained records, surface
// under GET /v1/audit and /metrics, and the file verifies from genesis.
func TestHTTPAuditLifecycleEvents(t *testing.T) {
	hs, _, logDir, auditPath := auditServer(t)

	resp := postJSON(t, hs.URL+"/v1/promote", serve.AdminRequest{Site: "shop", Version: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	resp = postJSON(t, hs.URL+"/v1/rollback", serve.AdminRequest{Site: "shop"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}

	out := getJSON[serve.AuditResponse](t, hs.URL+"/v1/audit")
	if !out.Enabled || out.Path == "" {
		t.Fatalf("audit endpoint reports disabled: %+v", out)
	}
	if out.Stats.Events < 2 {
		t.Fatalf("expected at least promote+rollback events, got %+v", out.Stats)
	}
	var sawPromote, sawRollback bool
	for _, rec := range out.Records {
		switch {
		case rec.Event == audit.EventPromote && rec.Site == "shop" && rec.Version == 2:
			sawPromote = true
		case rec.Event == audit.EventRollback && rec.Site == "shop":
			sawRollback = true
		}
	}
	if !sawPromote || !sawRollback {
		t.Fatalf("ledger missing lifecycle events (promote=%v rollback=%v): %+v",
			sawPromote, sawRollback, out.Records)
	}

	m := getJSON[serve.MetricsResponse](t, hs.URL+"/metrics")
	if m.Audit == nil || m.Audit.Events != out.Stats.Events {
		t.Fatalf("metrics audit counters diverge from the ledger: %+v vs %+v", m.Audit, out.Stats)
	}

	if _, err := audit.VerifyFile(auditPath); err != nil {
		t.Fatalf("ledger does not verify after lifecycle traffic: %v", err)
	}

	// The same mutations reached the durable log: a cold reopen replays
	// promote-then-rollback back to v1 active with both versions kept.
	lb2, err := logstore.Open(logDir, logstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lb2.Close()
	cold, err := lb2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if act, ok := cold.Active("shop"); !ok || act.Version != 1 {
		t.Fatalf("cold replay of the log: active %+v ok=%v, want v1", act, ok)
	}
	if n := len(cold.History("shop")); n != 2 {
		t.Fatalf("cold replay kept %d versions, want 2", n)
	}
}

// TestHTTPAuditDisabled pins that a server without a ledger still serves
// GET /v1/audit (enabled=false, empty records) and omits audit counters
// from /metrics.
func TestHTTPAuditDisabled(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)
	out := getJSON[serve.AuditResponse](t, hs.URL+"/v1/audit")
	if out.Enabled || len(out.Records) != 0 || out.Records == nil {
		t.Fatalf("audit-off endpoint = %+v", out)
	}
	m := getJSON[serve.MetricsResponse](t, hs.URL+"/metrics")
	if m.Audit != nil {
		t.Fatalf("audit-off metrics still carry audit stats: %+v", m.Audit)
	}
}

// auditFleet builds a sharded fleet whose shards share one log backend
// and one ledger — the production wiring of cmd/wrapserved's fleet mode.
func auditFleet(t *testing.T, shards, nSites int) (*fleetFixture, *logstore.Backend, *audit.Ledger, string) {
	t.Helper()
	leakcheck.Check(t)
	dir := t.TempDir()
	full := store.New()
	sites := make([]string, nSites)
	for i := range sites {
		sites[i] = fmt.Sprintf("site-%03d.example.com", i)
		if _, err := full.Put(sites[i], wrapperFor("a"), store.Meta{
			Profile: &store.Profile{Pages: 4, MeanRecords: 3},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := full.PutCandidate(sites[i], wrapperFor("b"), store.Meta{
			Profile: &store.Profile{Pages: 4, MeanRecords: 3},
		}); err != nil {
			t.Fatal(err)
		}
	}
	logDir := filepath.Join(dir, "wrappers.log")
	lb, err := logstore.Open(logDir, logstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.SeedFrom(full); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	led, err := audit.Open(filepath.Join(dir, "audit.jsonl"), audit.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	ring := shard.NewRing(shards, 64)
	router, err := serve.NewShardRouter(ring, func(k int) (*serve.Server, error) {
		part, err := lb.LoadPartition(ring, k)
		if err != nil {
			return nil, err
		}
		return serve.NewServer(serve.ServerConfig{
			Dispatcher: serve.NewDispatcher(part, serve.Options{}),
			Backend:    lb,
			Shard:      k,
			Audit:      led,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(router.Handler())
	t.Cleanup(hs.Close)
	return &fleetFixture{router: router, hs: hs, ring: ring, sites: sites}, lb, led, logDir
}

// TestFleetAuditSharedLedger pins fleet auditing: lifecycle events from
// different shards land on ONE chain, tagged with their shard, and the
// fleet's /v1/audit and /metrics expose it.
func TestFleetAuditSharedLedger(t *testing.T) {
	f, _, _, _ := auditFleet(t, 3, 9)

	// Promote every site: events necessarily span multiple shards.
	for _, site := range f.sites {
		resp := postJSON(t, f.hs.URL+"/v1/promote", serve.AdminRequest{Site: site, Version: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote %s: status %d", site, resp.StatusCode)
		}
	}
	out := getJSON[serve.AuditResponse](t, f.hs.URL+"/v1/audit")
	if !out.Enabled {
		t.Fatal("fleet audit endpoint reports disabled")
	}
	if out.Stats.Events != uint64(len(f.sites)) {
		t.Fatalf("fleet ledger has %d events, want %d", out.Stats.Events, len(f.sites))
	}
	shardsSeen := map[int]bool{}
	for _, rec := range out.Records {
		if rec.Event == audit.EventPromote {
			shardsSeen[rec.Shard] = true
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("one chain should collect events across shards, saw only %v", shardsSeen)
	}
	m := getJSON[serve.MetricsResponse](t, f.hs.URL+"/metrics")
	if m.Audit == nil || m.Audit.Events != out.Stats.Events {
		t.Fatalf("fleet metrics audit counters diverge: %+v vs %+v", m.Audit, out.Stats)
	}
}

// segmentBytes sums the size of every log segment in dir.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestFleetLogBackendAppendsAreShardLocal is the regression pin for the
// fleet-persistence hot spot: under the log backend a lifecycle event on
// one shard appends O(event) bytes — NOT a merged O(registry) save — and
// leaves every other shard's partition byte-identical across a cold
// reopen.
func TestFleetLogBackendAppendsAreShardLocal(t *testing.T) {
	f, lb, _, logDir := auditFleet(t, 3, 24)

	// Freeze every partition's pre-promote image.
	before := map[int][]byte{}
	for k := 0; k < 3; k++ {
		part, err := lb.LoadPartition(f.ring, k)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := part.Encode()
		if err != nil {
			t.Fatal(err)
		}
		before[k] = enc
	}
	seedSize := segmentBytes(t, logDir)

	site := f.sites[0]
	owner := f.ring.Owner(site)
	resp := postJSON(t, f.hs.URL+"/v1/promote", serve.AdminRequest{Site: site, Version: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}

	// O(event): one promotion must append one small record. The seed
	// snapshot of 24 two-version sites is orders of magnitude bigger; the
	// old merged-save hot spot would rewrite all of it.
	grown := segmentBytes(t, logDir) - seedSize
	if grown <= 0 {
		t.Fatal("promotion appended nothing to the log")
	}
	if grown*10 > seedSize {
		t.Fatalf("promotion grew the log by %d bytes against a %d-byte registry snapshot — O(registry), not O(event)", grown, seedSize)
	}

	// Cold reopen: only the owning shard's partition changed.
	lb2, err := logstore.Open(logDir, logstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lb2.Close()
	for k := 0; k < 3; k++ {
		part, err := lb2.LoadPartition(f.ring, k)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := part.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if k == owner {
			if string(enc) == string(before[k]) {
				t.Fatalf("owning shard %d unchanged after promote", k)
			}
			if act, ok := part.Active(site); !ok || act.Version != 2 {
				t.Fatalf("owning shard lost the promotion: %+v ok=%v", act, ok)
			}
		} else if string(enc) != string(before[k]) {
			t.Fatalf("shard %d mutated by shard %d's promotion", k, owner)
		}
	}
}
