package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"autowrap/internal/drift"
	"autowrap/internal/jobs"
	"autowrap/internal/serve"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/store/filestore"
	"autowrap/internal/testutil/leakcheck"
)

// fleetFixture builds an N-shard fleet over nSites sites, each carrying
// v1 (alpha family, active) and v2 (beta family, staged candidate) — so
// a promote flips the extracted family detectably, exactly like the
// single-dispatcher tests. Every shard gets its own partition,
// dispatcher, gate and (optionally) job plane; withJobs also wires a
// placeholder Repairer so the learn/repair routes accept submissions.
type fleetFixture struct {
	router *serve.ShardRouter
	hs     *httptest.Server
	ring   *shard.Ring
	sites  []string
}

func newFleet(t *testing.T, shards, nSites int, storePath string, withJobs bool) *fleetFixture {
	t.Helper()
	leakcheck.Check(t)
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
	ring := shard.NewRing(shards, 64)
	var be store.Backend
	if storePath != "" {
		fb, err := filestore.Open(storePath)
		if err != nil {
			t.Fatal(err)
		}
		be = fb
	}
	router, err := serve.NewShardRouter(ring, func(k int) (*serve.Server, error) {
		cfg := serve.ServerConfig{
			Dispatcher: serve.NewDispatcher(full.Partition(ring, k), serve.Options{}),
			Backend:    be,
			Shard:      k,
		}
		if withJobs {
			cfg.Jobs = jobs.New(jobs.Options{Workers: 1, QueueDepth: 8, IDPrefix: fmt.Sprintf("s%d-", k)})
			cfg.Repairer = &drift.Repairer{} // submittable; jobs fail fast without Store/Spec
		}
		return serve.NewServer(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce every shard's job plane on the way out (after hs.Close, whose
	// cleanup registers later and so runs first) — worker goroutines only
	// exit on drain, and the leak check registered above runs last of all.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Tests that exercise shutdown ordering drain the router
		// themselves; a second pass over an already-drained fleet is fine.
		if err := router.Drain(ctx); err != nil && !strings.Contains(err.Error(), "already drained") {
			t.Errorf("drain fleet: %v", err)
		}
	})
	hs := httptest.NewServer(router.Handler())
	t.Cleanup(hs.Close)
	return &fleetFixture{router: router, hs: hs, ring: ring, sites: sites}
}

// extractOne posts a single-page extract for the site and returns the
// decoded response and status code.
func (f *fleetFixture) extractOne(t *testing.T, site string) (serve.ExtractResponse, int) {
	t.Helper()
	resp := postJSON(t, f.hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: site,
		Page: &serve.PageInput{ID: "p0", HTML: testPage(0)},
	})
	if resp.StatusCode != http.StatusOK {
		return serve.ExtractResponse{}, resp.StatusCode
	}
	return decode[serve.ExtractResponse](t, resp), resp.StatusCode
}

// family classifies the records of a one-page extract response.
func family(t *testing.T, out serve.ExtractResponse) string {
	t.Helper()
	if len(out.Results) != 1 || len(out.Results[0].Records) == 0 {
		t.Fatalf("degenerate extract response: %+v", out)
	}
	if strings.HasPrefix(out.Results[0].Records[0], "beta-") {
		return "beta"
	}
	return "alpha"
}

func TestFleetExtractRoutesToOwningShard(t *testing.T) {
	f := newFleet(t, 4, 12, "", false)
	owned := make([]int, 4)
	for _, site := range f.sites {
		out, code := f.extractOne(t, site)
		if code != http.StatusOK {
			t.Fatalf("extract %s: status %d", site, code)
		}
		if out.Version != 1 || family(t, out) != "alpha" {
			t.Fatalf("extract %s: version %d family %s, want v1 alpha", site, out.Version, family(t, out))
		}
		owned[f.ring.Owner(site)]++
	}
	// Each shard observed exactly the requests for its own sites: traffic
	// for other shards' sites never touches it.
	for k := 0; k < 4; k++ {
		var seen int64
		for _, st := range f.router.Shard(k).Dispatcher().Status() {
			if st.Metrics != nil {
				seen += st.Metrics.Requests
			}
		}
		if seen != int64(owned[k]) {
			t.Errorf("shard %d observed %d requests, want %d", k, seen, owned[k])
		}
	}
	// Unknown sites 404 through the fleet like through a single server.
	resp := postJSON(t, f.hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: "never-learned.example.com",
		Page: &serve.PageInput{HTML: testPage(0)},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown site: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetLifecycleIsolation is the acceptance pin for partitioned
// hot-swap: promote/rollback on site X mutates — and hot-swaps — only
// shard(X). Every other shard's store generation and every other site's
// epoch stay exactly where they were, so no other shard rebuilds a
// runtime or even notices.
func TestFleetLifecycleIsolation(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "wrappers.json")
	f := newFleet(t, 4, 12, storePath, false)
	siteX := f.sites[5]
	ownerK := f.ring.Owner(siteX)

	// Warm every site's runtime so a spurious cross-shard rebuild would
	// be observable.
	for _, site := range f.sites {
		if _, code := f.extractOne(t, site); code != http.StatusOK {
			t.Fatalf("warm extract %s: %d", site, code)
		}
	}
	genBefore := make([]uint64, 4)
	for k := range genBefore {
		genBefore[k] = f.router.Shard(k).Dispatcher().Store().Generation()
	}
	epochBefore := make(map[string]uint64, len(f.sites))
	for _, site := range f.sites {
		epochBefore[site] = f.router.Shard(f.ring.Owner(site)).Dispatcher().Store().Epoch(site)
	}

	// Promote v2 via the fleet front door; the very next extract serves it.
	resp := postJSON(t, f.hs.URL+"/v1/promote", serve.AdminRequest{Site: siteX, Version: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if admin := decode[serve.AdminResponse](t, resp); admin.ServingVersion != 2 {
		t.Fatalf("promote answered serving v%d, want 2", admin.ServingVersion)
	}
	out, _ := f.extractOne(t, siteX)
	if out.Version != 2 || family(t, out) != "beta" {
		t.Fatalf("after promote: extract served v%d/%s, want v2/beta", out.Version, family(t, out))
	}

	checkIsolation := func(op string, mutations uint64) {
		t.Helper()
		for k := 0; k < 4; k++ {
			gen := f.router.Shard(k).Dispatcher().Store().Generation()
			want := genBefore[k]
			if k == ownerK {
				want += mutations
			}
			if gen != want {
				t.Errorf("after %s: shard %d generation = %d, want %d (owner is shard %d)", op, k, gen, want, ownerK)
			}
		}
		for _, site := range f.sites {
			if site == siteX {
				continue
			}
			epoch := f.router.Shard(f.ring.Owner(site)).Dispatcher().Store().Epoch(site)
			if epoch != epochBefore[site] {
				t.Errorf("after %s: uninvolved site %s epoch moved %d -> %d", op, site, epochBefore[site], epoch)
			}
		}
	}
	checkIsolation("promote", 1)

	// Rollback reverts serving and is just as isolated.
	resp = postJSON(t, f.hs.URL+"/v1/rollback", serve.AdminRequest{Site: siteX})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}
	out, _ = f.extractOne(t, siteX)
	if out.Version != 1 || family(t, out) != "alpha" {
		t.Fatalf("after rollback: extract served v%d/%s, want v1/alpha", out.Version, family(t, out))
	}
	checkIsolation("promote+rollback", 2)

	// The merged registry — not just the owner's partition — landed on
	// disk after each mutation.
	onDisk, err := store.Load(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Len() != len(f.sites) {
		t.Fatalf("persisted store has %d sites, want %d (a shard clobbered the merged file?)", onDisk.Len(), len(f.sites))
	}
	if act, ok := onDisk.Active(siteX); !ok || act.Version != 1 {
		t.Fatalf("persisted active for %s = v%d/%v, want v1", siteX, act.Version, ok)
	}
}

func TestFleetMetricsAggregation(t *testing.T) {
	f := newFleet(t, 2, 8, "", false)
	total := 0
	for i, site := range f.sites {
		for n := 0; n <= i%3; n++ {
			if _, code := f.extractOne(t, site); code != http.StatusOK {
				t.Fatalf("extract %s: %d", site, code)
			}
			total++
		}
	}
	resp, err := http.Get(f.hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := decode[serve.FleetMetricsResponse](t, resp)
	if m.Shards != 2 || m.VNodes != 64 {
		t.Fatalf("metrics shape: shards=%d vnodes=%d", m.Shards, m.VNodes)
	}
	if m.Fleet.Requests != int64(total) {
		t.Fatalf("fleet requests = %d, want %d", m.Fleet.Requests, total)
	}
	var perShard int64
	for _, row := range m.PerShard {
		perShard += row.Metrics.Requests
	}
	if perShard != int64(total) {
		t.Fatalf("per-shard requests sum to %d, want %d", perShard, total)
	}
	if m.Gate.Admitted != int64(total) {
		t.Fatalf("merged gate admitted = %d, want %d", m.Gate.Admitted, total)
	}
	if m.Fleet.LatencyP50Ms <= 0 || m.Fleet.LatencyMaxMs < m.Fleet.LatencyP50Ms {
		t.Fatalf("merged latency quantiles look wrong: p50=%f max=%f", m.Fleet.LatencyP50Ms, m.Fleet.LatencyMaxMs)
	}
	if len(m.Sites) != len(f.sites) {
		t.Fatalf("metrics lists %d sites, want %d", len(m.Sites), len(f.sites))
	}
	for _, s := range m.Sites {
		if s.Shard != f.ring.Owner(s.Site) {
			t.Errorf("site %s stamped shard %d, ring says %d", s.Site, s.Shard, f.ring.Owner(s.Site))
		}
	}
	// /v1/sites carries the same shard stamps, sorted by site.
	resp2, err := http.Get(f.hs.URL + "/v1/sites")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sites := decode[[]serve.SiteStatus](t, resp2)
	for i := 1; i < len(sites); i++ {
		if sites[i-1].Site >= sites[i].Site {
			t.Fatalf("/v1/sites not sorted: %s before %s", sites[i-1].Site, sites[i].Site)
		}
	}
}

// TestFleetLearnLandsOnOwningShard pins lifecycle routing for the job
// plane: the 202's job ID carries the owning shard's prefix, proving the
// learn was enqueued on shard(site)'s manager, not round-robined.
func TestFleetLearnLandsOnOwningShard(t *testing.T) {
	f := newFleet(t, 4, 4, "", true)
	newSite := "brand-new.example.com"
	ownerK := f.ring.Owner(newSite)
	resp := postJSON(t, f.hs.URL+"/v1/learn", serve.LearnRequest{
		Site:  newSite,
		Pages: []string{testPage(0), testPage(1)},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("learn: status %d, want 202", resp.StatusCode)
	}
	acc := decode[serve.JobAccepted](t, resp)
	wantPrefix := fmt.Sprintf("s%d-", ownerK)
	if !strings.HasPrefix(acc.JobID, wantPrefix) {
		t.Fatalf("learn job ID %q does not carry owner prefix %q", acc.JobID, wantPrefix)
	}
	// The fleet resolves the ID without the client knowing about shards.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(f.hs.URL + "/v1/jobs/" + acc.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get: status %d", resp.StatusCode)
		}
		snap := decode[serve.JobSnapshot](t, resp)
		resp.Body.Close()
		if snap.State.Terminal() {
			break // the placeholder repairer fails the job; routing is what's under test
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp3 := postJSON(t, f.hs.URL+"/v1/jobs/no-such-job/cancel", struct{}{})
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", resp3.StatusCode)
	}
}

// TestFleetDrainOrdering pins the shutdown contract: SetDraining flips
// /healthz to 503 while every shard keeps admitting extracts, and Drain
// runs every already-queued job to completion — nothing accepted is
// dropped, even jobs that were still waiting for a worker when the
// drain began.
func TestFleetDrainOrdering(t *testing.T) {
	f := newFleet(t, 2, 4, "", true)

	// Occupy shard 0's single job worker, then queue two more behind it.
	m0 := f.router.Shard(0).Jobs()
	release := make(chan struct{})
	first, err := m0.Submit(jobs.KindRepair, "held", func(ctx context.Context, progress func(string)) (any, error) {
		<-release
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var queued []string
	for i := 0; i < 2; i++ {
		snap, err := m0.Submit(jobs.KindRepair, fmt.Sprintf("queued-%d", i), func(ctx context.Context, progress func(string)) (any, error) {
			return "ok", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, snap.ID)
	}

	// Step 1: readiness flips fleet-wide...
	f.router.SetDraining(true)
	resp, err := http.Get(f.hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[serve.FleetHealthzResponse](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz while draining: %d/%s, want 503/draining", resp.StatusCode, h.Status)
	}
	// ...but every shard still admits extract traffic: the LB steers away
	// on 503 while requests already routed here complete normally.
	for _, site := range f.sites {
		if _, code := f.extractOne(t, site); code != http.StatusOK {
			t.Fatalf("extract %s while draining: status %d, want 200", site, code)
		}
	}

	// Step 2+3: an extract in flight during Drain still answers 200, and
	// Drain waits for the queued jobs rather than canceling them.
	var wg sync.WaitGroup
	wg.Add(1)
	extractDone := make(chan int, 1)
	go func() {
		defer wg.Done()
		_, code := f.extractOne(t, f.sites[0])
		extractDone <- code
	}()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.router.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if code := <-extractDone; code != http.StatusOK {
		t.Fatalf("extract concurrent with Drain: status %d, want 200", code)
	}
	for _, id := range append([]string{first.ID}, queued...) {
		snap, err := m0.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != jobs.StateDone {
			t.Fatalf("job %s state = %s after Drain, want done (queued jobs must not be dropped)", id, snap.State)
		}
	}
}
