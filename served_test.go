// End-to-end acceptance test for the HTTP extraction service (ISSUE 4):
// learn a batch with the engine, store it, boot the server on a random
// port, extract over HTTP from held-out pages, serve a template-drifted
// twin until the monitor trips, repair it via POST /v1/repair, and verify
// the very same server instance serves the promoted wrapper — no restart,
// no cache invalidation, the hot-swap is the whole mechanism.
package autowrap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autowrap"
	"autowrap/internal/dataset"
	"autowrap/internal/gen"
	"autowrap/internal/serve"
	"autowrap/internal/serve/servetest"
)

// waitJob polls GET /v1/jobs/{id} until the job reaches a terminal state
// and fails the test unless that state is done.
func waitJob(t *testing.T, base, id string) serve.JobSnapshot {
	t.Helper()
	snap := waitJobEnd(t, base, id)
	if snap.State != "done" {
		t.Fatalf("job %s finished %s: %s", id, snap.State, snap.Error)
	}
	return snap
}

// waitJobEnd polls GET /v1/jobs/{id} until the job reaches a terminal
// state, whichever it is.
func waitJobEnd(t *testing.T, base, id string) serve.JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap serve.JobSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job %s: %v", id, err)
		}
		if snap.State.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, snap.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// repairResult re-decodes a done job's result payload as a RepairResponse
// (it travels as generic JSON inside the snapshot).
func repairResult(t *testing.T, snap serve.JobSnapshot) serve.RepairResponse {
	t.Helper()
	b, err := json.Marshal(snap.Result)
	if err != nil {
		t.Fatal(err)
	}
	var out serve.RepairResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("job %s result %v: %v", snap.ID, snap.Result, err)
	}
	return out
}

// postJSON posts v and decodes the response into out, returning the status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPServiceEndToEnd(t *testing.T) {
	clean, mutated, annot := maintPair(t)
	ctx := context.Background()

	// Learn with the engine on the training half of the clean site.
	var cleanHTML []string
	for _, p := range clean.Corpus.Pages {
		cleanHTML = append(cleanHTML, p.HTML)
	}
	split := len(cleanHTML) / 2
	train := autowrap.ParsePages(cleanHTML[:split])
	newInductor := func(c *autowrap.Corpus) (autowrap.Inductor, error) {
		return autowrap.NewXPathInductor(c), nil
	}
	config := autowrap.NewLearnConfig(autowrap.GenericModels(train), autowrap.Options{})
	batch, err := autowrap.LearnBatch(ctx, []autowrap.BatchSite{{
		Name:        clean.Name,
		Corpus:      train,
		Annotator:   annot,
		NewInductor: newInductor,
		Config:      config,
	}}, autowrap.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := autowrap.NewWrapperStore()
	if n, err := autowrap.StoreBatch(st, batch); n != 1 || err != nil {
		t.Fatalf("StoreBatch: n=%d err=%v", n, err)
	}

	// Boot the whole serving stack on a random port, through the facade.
	monitor := autowrap.NewMonitor(autowrap.HealthPolicy{Window: 8, MinPages: 4})
	dispatcher := autowrap.NewDispatcher(st, autowrap.DispatcherOptions{Monitor: monitor})
	repairer := &autowrap.Repairer{
		Store: st,
		Spec: func(site string, c *autowrap.Corpus) (autowrap.BatchSite, error) {
			return autowrap.BatchSite{Annotator: annot, NewInductor: newInductor,
				Config: autowrap.NewLearnConfig(autowrap.GenericModels(c), autowrap.Options{})}, nil
		},
		Monitor: monitor,
	}
	srv, err := autowrap.NewServer(autowrap.ServerConfig{
		Dispatcher: dispatcher,
		Repairer:   repairer,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close() // drains the implicitly created job manager

	// Held-out pages of the clean site extract over HTTP exactly what the
	// stored wrapper extracts natively.
	v1, _ := st.Active(clean.Name)
	native, err := v1.Compile()
	if err != nil {
		t.Fatal(err)
	}
	req := serve.ExtractRequest{Site: clean.Name}
	var want []string
	for i := split; i < len(cleanHTML); i++ {
		req.Pages = append(req.Pages, serve.PageInput{
			ID: fmt.Sprintf("held-%02d", i), HTML: cleanHTML[i]})
		for _, n := range native.ApplyPage(autowrap.ParsePage(cleanHTML[i])) {
			want = append(want, strings.TrimSpace(n.Data))
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: v1 extracts nothing from held-out pages")
	}
	var out serve.ExtractResponse
	if code := postJSON(t, hs.URL+"/v1/extract", req, &out); code != http.StatusOK {
		t.Fatalf("held-out extract: status %d", code)
	}
	if out.Version != 1 {
		t.Fatalf("held-out extract served v%d, want v1", out.Version)
	}
	var got []string
	for _, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("held-out page %s failed: %s", r.ID, r.Error)
		}
		got = append(got, r.Records...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HTTP extraction %d records != native %d", len(got), len(want))
	}

	// Serve the template-drifted twin through the same endpoint: the
	// records collapse and the drift monitor trips.
	var driftReq serve.ExtractRequest
	var driftHTML []string
	driftReq.Site = clean.Name
	for i, p := range mutated.Corpus.Pages {
		driftReq.Pages = append(driftReq.Pages, serve.PageInput{
			ID: fmt.Sprintf("drift-%02d", i), HTML: p.HTML})
		driftHTML = append(driftHTML, p.HTML)
	}
	if code := postJSON(t, hs.URL+"/v1/extract", driftReq, nil); code != http.StatusOK {
		t.Fatalf("drifted extract: status %d", code)
	}
	health, ok := monitor.Site(clean.Name)
	if !ok || !health.Tripped() {
		t.Fatalf("drifted traffic did not trip the monitor: %v", monitor.Snapshot())
	}

	// /metrics reports the trip.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics serve.MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(metrics.Sites) != 1 || metrics.Sites[0].Drift == nil || !metrics.Sites[0].Drift.Tripped {
		t.Fatalf("/metrics does not report the trip: %+v", metrics.Sites)
	}

	// Repair over HTTP: the request enqueues a background job and answers
	// 202 + job id immediately — learning happens on the maintenance
	// plane, not inside the HTTP request. Poll the job to completion,
	// then check the validated promotion + hot-swap it performed.
	var accepted serve.JobAccepted
	if code := postJSON(t, hs.URL+"/v1/repair",
		serve.RepairRequest{Site: clean.Name, Pages: driftHTML}, &accepted); code != http.StatusAccepted {
		t.Fatalf("repair: status %d (%+v), want 202", code, accepted)
	}
	if accepted.JobID == "" || accepted.Kind != "repair" {
		t.Fatalf("repair acceptance = %+v", accepted)
	}
	job := waitJob(t, hs.URL, accepted.JobID)
	rout := repairResult(t, job)
	if !rout.Promoted || rout.ServingVersion != 2 {
		t.Fatalf("repair job result = %+v, want promoted v2", rout)
	}

	// The same server instance now serves the promoted wrapper: the
	// drifted pages extract the full gold record set, no restart involved.
	if code := postJSON(t, hs.URL+"/v1/extract", driftReq, &out); code != http.StatusOK {
		t.Fatalf("post-repair extract: status %d", code)
	}
	if out.Version != 2 {
		t.Fatalf("post-repair extract served v%d, want v2", out.Version)
	}
	got = nil
	for _, r := range out.Results {
		got = append(got, r.Records...)
	}
	want = nil
	mutated.Gold["name"].ForEach(func(ord int) {
		want = append(want, strings.TrimSpace(mutated.Corpus.TextContent(ord)))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-repair extraction: %d records, want %d gold", len(got), len(want))
	}

	// Rollback over HTTP flips serving straight back to v1.
	var admin serve.AdminResponse
	if code := postJSON(t, hs.URL+"/v1/rollback",
		serve.AdminRequest{Site: clean.Name}, &admin); code != http.StatusOK {
		t.Fatalf("rollback: status %d", code)
	}
	if admin.ServingVersion != 1 {
		t.Fatalf("rollback serving version = %d, want 1", admin.ServingVersion)
	}
	if code := postJSON(t, hs.URL+"/v1/extract", req, &out); code != http.StatusOK || out.Version != 1 {
		t.Fatalf("after rollback: status %d version %d, want 200/v1", code, out.Version)
	}
}

// maintPairSeed is maintPair with a caller-chosen seed, for tests that
// need a second, unrelated site.
func maintPairSeed(t *testing.T, seed int64) (clean, mutated *gen.Site, annot autowrap.Annotator) {
	t.Helper()
	opts := dataset.DealersOptions{NumSites: 1, NumPages: 16, Seed: seed}
	ds, err := dataset.Dealers(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Drift = 2
	dsm, err := dataset.Dealers(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Sites[0], dsm.Sites[0], ds.Annotator
}

// learnedStore holds the engine-learned v1 of the clean site, and spec is
// the re-learning recipe a repair of it runs.
func learnedStore(t *testing.T, clean *gen.Site, annot autowrap.Annotator) (st *autowrap.WrapperStore,
	spec func(string, *autowrap.Corpus) (autowrap.BatchSite, error)) {
	t.Helper()
	newInductor := func(c *autowrap.Corpus) (autowrap.Inductor, error) {
		return autowrap.NewXPathInductor(c), nil
	}
	batch, err := autowrap.LearnBatch(context.Background(), []autowrap.BatchSite{{
		Name:        clean.Name,
		Corpus:      clean.Corpus,
		Annotator:   annot,
		NewInductor: newInductor,
		Config:      autowrap.NewLearnConfig(autowrap.GenericModels(clean.Corpus), autowrap.Options{}),
	}}, autowrap.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st = autowrap.NewWrapperStore()
	if n, err := autowrap.StoreBatch(st, batch); n != 1 || err != nil {
		t.Fatalf("StoreBatch: n=%d err=%v", n, err)
	}
	return st, func(site string, c *autowrap.Corpus) (autowrap.BatchSite, error) {
		return autowrap.BatchSite{Annotator: annot, NewInductor: newInductor,
			Config: autowrap.NewLearnConfig(autowrap.GenericModels(c), autowrap.Options{})}, nil
	}
}

// learnedServerFromSites boots the full serving stack by hand (engine-learned
// v1 of the clean site, monitor, repairer, job manager) and returns the
// pieces the maintenance tests drive.
func learnedServerFromSites(t *testing.T, clean *gen.Site, annot autowrap.Annotator,
	gate *autowrap.AdmissionGate, recentPages int) (*autowrap.Server, *servetest.Server, *autowrap.Monitor) {
	t.Helper()
	st, spec := learnedStore(t, clean, annot)
	monitor := autowrap.NewMonitor(autowrap.HealthPolicy{Window: 8, MinPages: 4})
	dispatcher := autowrap.NewDispatcher(st, autowrap.DispatcherOptions{
		Monitor: monitor, RecentPages: recentPages,
	})
	repairer := &autowrap.Repairer{Store: st, Spec: spec, Monitor: monitor}
	srv, err := autowrap.NewServer(autowrap.ServerConfig{
		Dispatcher: dispatcher,
		Gate:       gate,
		Repairer:   repairer,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, hs, monitor
}

// TestAutoRepairHealsWithoutAdminCall is the acceptance e2e for the
// autonomous maintenance loop: a drift-tripped site heals via the scanner
// — trip → auto-enqueued repair job re-learning from recently served
// pages → validated promotion → hot-swap — with no /v1/repair call and no
// admin intervention of any kind. The node is booted as wrapserved boots
// one with -auto-repair.
func TestAutoRepairHealsWithoutAdminCall(t *testing.T) {
	clean, mutated, annot := maintPair(t)
	st, spec := learnedStore(t, clean, annot)
	srv, err := serve.NewNode(serve.NodeConfig{
		Store:       st,
		RecentPages: 32,
		Monitor:     &autowrap.HealthPolicy{Window: 8, MinPages: 4},
		Spec:        spec,
		Maintainer:  &serve.MaintainerOptions{Interval: 25 * time.Millisecond, MinGap: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := servetest.NewServer(srv.Handler())
	defer hs.Close()
	monitor := srv.Dispatcher().Monitor()

	// Drifted traffic only — the site's records collapse, the monitor
	// trips, and from here on nobody calls any admin endpoint.
	driftReq := serve.ExtractRequest{Site: clean.Name}
	for i, p := range mutated.Corpus.Pages {
		driftReq.Pages = append(driftReq.Pages, serve.PageInput{
			ID: fmt.Sprintf("drift-%02d", i), HTML: p.HTML})
	}
	if code := postJSON(t, hs.URL+"/v1/extract", driftReq, nil); code != http.StatusOK {
		t.Fatalf("drifted extract: status %d", code)
	}
	// The trip hook may already have repaired and re-armed the monitor by
	// now (that is the point); the lifetime trip counter proves the trip
	// happened.
	if h, ok := monitor.Site(clean.Name); !ok || h.Stats().Trips < 1 {
		t.Fatalf("drifted traffic did not trip the monitor: %v", monitor.Snapshot())
	}

	// The site must heal on its own: keep serving drifted pages until the
	// promoted v2 answers (the trip hook + scanner own the repair).
	var out serve.ExtractResponse
	deadline := time.Now().Add(60 * time.Second)
	probe := serve.ExtractRequest{Site: clean.Name,
		Page: &serve.PageInput{ID: "probe", HTML: mutated.Corpus.Pages[0].HTML}}
	for {
		if code := postJSON(t, hs.URL+"/v1/extract", probe, &out); code != http.StatusOK {
			t.Fatalf("probe extract: status %d", code)
		}
		if out.Version >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("site never auto-healed; still serving v%d (jobs: %+v)",
				out.Version, srv.Jobs().List())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The healed wrapper extracts the drifted site's full gold record set.
	if code := postJSON(t, hs.URL+"/v1/extract", driftReq, &out); code != http.StatusOK {
		t.Fatalf("post-heal extract: status %d", code)
	}
	var got []string
	for _, r := range out.Results {
		got = append(got, r.Records...)
	}
	var want []string
	mutated.Gold["name"].ForEach(func(ord int) {
		want = append(want, strings.TrimSpace(mutated.Corpus.TextContent(ord)))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-heal extraction: %d records, want %d gold", len(got), len(want))
	}

	// The repair rode the job plane: a done auto-repair job is visible. The
	// promoted version serves before its job finishes (it still refreshes
	// the serving binding), so give the job until the deadline to get there.
	for sawRepair := false; !sawRepair; time.Sleep(5 * time.Millisecond) {
		for _, j := range srv.Jobs().List() {
			if j.Kind == "repair" && j.Site == clean.Name && j.State == "done" {
				sawRepair = true
			}
		}
		if !sawRepair && time.Now().After(deadline) {
			t.Fatalf("no done repair job in %+v", srv.Jobs().List())
		}
	}
	// The monitor re-armed against the new wrapper.
	if h, ok := monitor.Site(clean.Name); !ok || h.Tripped() {
		t.Fatal("monitor still tripped after auto-repair")
	}
}

// TestRepairAnswers202WhileExtractGateSaturated pins the isolation
// acceptance criterion: POST /v1/repair returns 202 + job id immediately
// even while the extract hot path is fully saturated — the maintenance
// plane never queues behind (or inside) the admission gate, where the old
// blocking repair serialized.
func TestRepairAnswers202WhileExtractGateSaturated(t *testing.T) {
	clean, mutated, annot := maintPair(t)
	gate := autowrap.NewAdmissionGate(autowrap.AdmissionOptions{MaxInFlight: 1, MaxQueue: -1})
	_, hs, _ := learnedServerFromSites(t, clean, annot, gate, 0)

	// Saturate the gate: extract requests are now rejected at the door.
	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if code := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: clean.Name,
		Page: &serve.PageInput{HTML: clean.Corpus.Pages[0].HTML}}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("extract through saturated gate: status %d, want 429", code)
	}

	var driftHTML []string
	for _, p := range mutated.Corpus.Pages {
		driftHTML = append(driftHTML, p.HTML)
	}
	var accepted serve.JobAccepted
	start := time.Now()
	code := postJSON(t, hs.URL+"/v1/repair",
		serve.RepairRequest{Site: clean.Name, Pages: driftHTML}, &accepted)
	elapsed := time.Since(start)
	if code != http.StatusAccepted || accepted.JobID == "" {
		t.Fatalf("repair under extract load: status %d (%+v), want 202 + job id", code, accepted)
	}
	// The acceptance budget is 50ms; CI boxes wobble, so the hard test
	// bound is looser — but nowhere near a learn's duration, proving the
	// response did not wait for the job.
	if elapsed > 2*time.Second {
		t.Fatalf("repair submission took %v with the gate saturated; must not serialize", elapsed)
	}
	t.Logf("repair answered 202 in %v with the extract gate saturated", elapsed)

	// The job itself completes fine on the background plane.
	job := waitJob(t, hs.URL, accepted.JobID)
	if res := repairResult(t, job); !res.Promoted {
		t.Fatalf("background repair result = %+v, want promoted", res)
	}
}

// hookAnnotator runs whatever hook is installed before it annotates: the
// seam a test uses to act while a learn is in flight.
type hookAnnotator struct {
	autowrap.Annotator
	hook *atomic.Pointer[func()]
}

func (a hookAnnotator) Annotate(c *autowrap.Corpus) *autowrap.NodeSet {
	if h := a.hook.Load(); h != nil {
		(*h)()
	}
	return a.Annotator.Annotate(c)
}

// TestRunningRepairJobCanBeStopped: POST /v1/jobs/{id}/cancel and
// timeout_ms must reach a repair that is already learning. Either way the
// job ends without a result and the store keeps its one version; left
// alone, the same request promotes v2 and says where its time went.
func TestRunningRepairJobCanBeStopped(t *testing.T) {
	clean, mutated, annot := maintPair(t)
	var hook atomic.Pointer[func()]
	srv, hs, _ := learnedServerFromSites(t, clean, hookAnnotator{annot, &hook}, nil, 0)
	var pages []string
	for _, p := range mutated.Corpus.Pages {
		pages = append(pages, p.HTML)
	}
	submit := func(timeoutMS int) serve.JobSnapshot {
		var accepted serve.JobAccepted
		if code := postJSON(t, hs.URL+"/v1/repair",
			serve.RepairRequest{Site: clean.Name, Pages: pages, TimeoutMS: timeoutMS}, &accepted); code != http.StatusAccepted {
			t.Fatalf("repair: status %d (%+v), want 202", code, accepted)
		}
		return waitJobEnd(t, hs.URL, accepted.JobID)
	}
	unchanged := func(when string) {
		st := srv.Dispatcher().Store()
		if active, _ := st.Active(clean.Name); active.Version != 1 || len(st.History(clean.Name)) != 1 {
			t.Fatalf("%s: store moved: active v%d, %d versions", when, active.Version, len(st.History(clean.Name)))
		}
	}

	cancelRunning := func() {
		for _, j := range srv.Jobs().List() {
			if j.State == "running" {
				if code := postJSON(t, hs.URL+"/v1/jobs/"+j.ID+"/cancel", struct{}{}, nil); code != http.StatusOK {
					t.Errorf("cancel %s: status %d", j.ID, code)
				}
			}
		}
	}
	hook.Store(&cancelRunning)
	if snap := submit(0); snap.State != "canceled" || snap.Result != nil {
		t.Fatalf("cancelled mid-learn: job %+v, want canceled", snap)
	}
	unchanged("after cancel")

	outlast := func() { time.Sleep(20 * time.Millisecond) }
	hook.Store(&outlast)
	if snap := submit(1); snap.State != "failed" || !strings.Contains(snap.Error, "context deadline exceeded") {
		t.Fatalf("timeout_ms passed mid-learn: job %+v, want failed with context deadline exceeded", snap)
	}
	unchanged("after timeout")

	hook.Store(nil)
	snap := submit(0)
	res := repairResult(t, snap)
	if snap.State != "done" || !res.Promoted || res.CandidateVersion != 2 {
		t.Fatalf("uninterrupted repair: job %+v", snap)
	}
	if us := res.StagesUS; us.Parse <= 0 || us.Annotate <= 0 || us.Build <= 0 || us.Enumerate <= 0 ||
		us.Rank <= 0 || us.Validate <= 0 || us.Persist <= 0 {
		t.Fatalf("stages_us not reported: %+v", us)
	}
}

// TestHTTPLearnJobNewSite drives the over-the-wire learning path: a site
// the store has never seen is submitted via POST /v1/learn, learned on
// the job plane, promoted unconditionally (no incumbent), hot-swapped,
// and immediately serves extractions.
func TestHTTPLearnJobNewSite(t *testing.T) {
	clean, _, annot := maintPair(t)
	newSite, _, _ := maintPairSeed(t, 2002)
	_, hs, _ := learnedServerFromSites(t, clean, annot, nil, 0)

	var pages []string
	for _, p := range newSite.Corpus.Pages {
		pages = append(pages, p.HTML)
	}
	var accepted serve.JobAccepted
	if code := postJSON(t, hs.URL+"/v1/learn",
		serve.LearnRequest{Site: newSite.Name + "-via-http", Pages: pages}, &accepted); code != http.StatusAccepted {
		t.Fatalf("learn: status %d (%+v), want 202", code, accepted)
	}
	if accepted.Kind != "learn" {
		t.Fatalf("accepted kind = %q, want learn", accepted.Kind)
	}
	job := waitJob(t, hs.URL, accepted.JobID)
	res := repairResult(t, job)
	if !res.Promoted || res.ServingVersion != 1 {
		t.Fatalf("learn job result = %+v, want promoted v1 (no incumbent)", res)
	}

	// The freshly learned site serves over the same server instance.
	var out serve.ExtractResponse
	if code := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: newSite.Name + "-via-http",
		Page: &serve.PageInput{HTML: newSite.Corpus.Pages[0].HTML}}, &out); code != http.StatusOK {
		t.Fatalf("extract from learned site: status %d", code)
	}
	if len(out.Results) != 1 || len(out.Results[0].Records) == 0 {
		t.Fatalf("learned site extracted nothing: %+v", out)
	}
}

// TestFacadeShardedFleet pins the facade's sharding surface end to end:
// learn a small batch, save it, reload each shard's slice with the
// backend's LoadPartition, front the per-shard servers with
// NewShardRouter, and extract every site through the one fleet handler —
// each request dispatched by the ring to the shard that owns the site.
func TestFacadeShardedFleet(t *testing.T) {
	ds, err := dataset.Dealers(dataset.DealersOptions{NumSites: 3, NumPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	newInductor := func(c *autowrap.Corpus) (autowrap.Inductor, error) {
		return autowrap.NewXPathInductor(c), nil
	}
	var sites []autowrap.BatchSite
	for _, site := range ds.Sites {
		sites = append(sites, autowrap.BatchSite{
			Name: site.Name, Corpus: site.Corpus, Annotator: ds.Annotator,
			NewInductor: newInductor,
			Config:      autowrap.NewLearnConfig(autowrap.GenericModels(site.Corpus), autowrap.Options{}),
		})
	}
	batch, err := autowrap.LearnBatch(context.Background(), sites, autowrap.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := autowrap.NewWrapperStore()
	if n, err := autowrap.StoreBatch(st, batch); n != len(sites) || err != nil {
		t.Fatalf("StoreBatch: n=%d err=%v", n, err)
	}
	path := filepath.Join(t.TempDir(), "wrappers.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}

	// Two shards over the saved registry: each server loads only its own
	// partition from the shared file backend and persists through it.
	ring := autowrap.NewShardRing(2, 64)
	be, err := autowrap.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	router, err := autowrap.NewShardRouter(ring,
		func(k int) (*autowrap.Server, error) {
			part, err := be.LoadPartition(ring, k)
			if err != nil {
				return nil, err
			}
			return autowrap.NewServer(autowrap.ServerConfig{
				Dispatcher: autowrap.NewDispatcher(part, autowrap.DispatcherOptions{}),
				Backend:    be,
				Shard:      k,
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(router.Handler())
	defer hs.Close()

	var h serve.HealthzResponse
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards != 2 || h.Sites != len(ds.Sites) {
		t.Fatalf("fleet healthz = %+v, want 2 shards serving %d sites", h, len(ds.Sites))
	}

	for _, site := range ds.Sites {
		var out serve.ExtractResponse
		code := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
			Site: site.Name,
			Page: &serve.PageInput{ID: "p0", HTML: site.Corpus.Pages[0].HTML},
		}, &out)
		if code != http.StatusOK {
			t.Fatalf("%s through the fleet: status %d", site.Name, code)
		}
		if len(out.Results) != 1 || out.Results[0].Error != "" || len(out.Results[0].Records) == 0 {
			t.Fatalf("%s through the fleet extracted nothing: %+v", site.Name, out)
		}
	}
}
