package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autowrap/internal/drift"
	"autowrap/internal/jobs"
	"autowrap/internal/serve"
	"autowrap/internal/serve/servetest"
	"autowrap/internal/store"
	"autowrap/internal/testutil/leakcheck"
)

func newTestServer(t *testing.T, st *store.Store, gate *serve.Gate) (*serve.Server, *servetest.Server) {
	t.Helper()
	leakcheck.Check(t)
	d := serve.NewDispatcher(st, serve.Options{})
	srv, err := serve.NewServer(serve.ServerConfig{Dispatcher: d, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPExtractSingleAndBatch(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)

	// Single-page shape.
	resp := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: "shop", Page: &serve.PageInput{ID: "one", HTML: testPage(0)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single page: status %d", resp.StatusCode)
	}
	out := decode[serve.ExtractResponse](t, resp)
	if out.Version != 1 || len(out.Results) != 1 || len(out.Results[0].Records) != 3 {
		t.Fatalf("single page response = %+v", out)
	}
	if !strings.HasPrefix(out.Results[0].Records[0], "alpha-") {
		t.Fatalf("v1 served %q, want alpha family", out.Results[0].Records[0])
	}

	// Batch shape.
	var pages []serve.PageInput
	for i := 0; i < 5; i++ {
		pages = append(pages, serve.PageInput{ID: fmt.Sprintf("p%d", i), HTML: testPage(i)})
	}
	resp = postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{Site: "shop", Pages: pages})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	out = decode[serve.ExtractResponse](t, resp)
	if len(out.Results) != 5 {
		t.Fatalf("batch returned %d results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.ID != fmt.Sprintf("p%d", i) {
			t.Fatalf("result %d has ID %q: results must stay index-aligned", i, r.ID)
		}
		if len(r.Records) != 3 || r.Error != "" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestHTTPExtractErrors(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown site", serve.ExtractRequest{Site: "nosuch", Page: &serve.PageInput{HTML: "<p>x</p>"}}, http.StatusNotFound},
		{"missing site", serve.ExtractRequest{Page: &serve.PageInput{HTML: "<p>x</p>"}}, http.StatusBadRequest},
		{"no pages", serve.ExtractRequest{Site: "shop"}, http.StatusBadRequest},
		{"both shapes", serve.ExtractRequest{Site: "shop",
			Page:  &serve.PageInput{HTML: "x"},
			Pages: []serve.PageInput{{HTML: "y"}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, hs.URL+"/v1/extract", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		body := decode[map[string]any](t, resp)
		if body["error"] == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
	}

	// Bad JSON and wrong method.
	resp, err := http.Post(hs.URL+"/v1/extract", "application/json",
		strings.NewReader(`{"site":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(hs.URL + "/v1/extract")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET extract: status %d", getResp.StatusCode)
	}

	// Candidate-only site → 409.
	st := store.New()
	if _, err := st.PutCandidate("staged", wrapperFor("a"), store.Meta{}); err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, st, nil)
	resp = postJSON(t, hs2.URL+"/v1/extract", serve.ExtractRequest{
		Site: "staged", Page: &serve.PageInput{HTML: testPage(0)}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("candidate-only site: status %d, want 409", resp.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	gate := serve.NewGate(serve.GateOptions{MaxInFlight: 1, MaxQueue: -1})
	_, hs := newTestServer(t, twoVersionStore(t), gate)

	// Occupy the only slot directly, then hit the endpoint: the request
	// must be rejected at the door with 429 + Retry-After, not queued.
	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: "shop", Page: &serve.PageInput{HTML: testPage(0)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	release()

	// Slot free again: the same request now succeeds.
	resp = postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: "shop", Page: &serve.PageInput{HTML: testPage(0)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
	if snap := gate.Snapshot(); snap.Rejected != 1 {
		t.Fatalf("gate rejected = %d, want 1", snap.Rejected)
	}
}

// TestHTTPQueuedRequestHonorsDeadline pins the admission-wait contract at
// the HTTP layer: the per-request deadline (timeout_ms) starts before
// Gate.Acquire, so a request queued behind busy slots gives up at its
// deadline instead of waiting indefinitely for a slot.
func TestHTTPQueuedRequestHonorsDeadline(t *testing.T) {
	gate := serve.NewGate(serve.GateOptions{MaxInFlight: 1, MaxQueue: 4})
	_, hs := newTestServer(t, twoVersionStore(t), gate)

	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	resp := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: "shop", Page: &serve.PageInput{HTML: testPage(0)}, TimeoutMS: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: status %d, want 504", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("request waited %v in the queue despite a 50ms deadline", waited)
	}
}

func TestHTTPHealthzAndDraining(t *testing.T) {
	srv, hs := newTestServer(t, twoVersionStore(t), nil)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	hz := decode[serve.HealthzResponse](t, resp)
	if hz.Status != "ok" || hz.Sites != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	srv.SetDraining(true)
	resp2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp2.StatusCode)
	}

	// Draining steers traffic away but in-flight/new work still completes.
	resp3 := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: "shop", Page: &serve.PageInput{HTML: testPage(0)}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("extract while draining: status %d, want 200", resp3.StatusCode)
	}
}

func TestHTTPMetricsAndSites(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)
	for i := 0; i < 3; i++ {
		postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
			Site: "shop", Page: &serve.PageInput{HTML: testPage(i)}})
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := decode[serve.MetricsResponse](t, resp)
	if m.Gate.Admitted != 3 {
		t.Fatalf("gate admitted = %d, want 3", m.Gate.Admitted)
	}
	if len(m.Sites) != 1 {
		t.Fatalf("metrics sites = %d", len(m.Sites))
	}
	s := m.Sites[0]
	if s.Site != "shop" || s.ActiveVersion != 1 || s.ServingVersion != 1 {
		t.Fatalf("site status = %+v", s)
	}
	if s.Metrics == nil || s.Metrics.Requests != 3 || s.Metrics.Records != 9 {
		t.Fatalf("site metrics = %+v", s.Metrics)
	}
	if s.Health == nil || s.Health.Pages != 3 {
		t.Fatalf("site health = %+v", s.Health)
	}
	if s.Metrics.LatencyP50Ms <= 0 {
		t.Fatalf("latency p50 = %v, want > 0", s.Metrics.LatencyP50Ms)
	}

	sresp, err := http.Get(hs.URL + "/v1/sites")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sites := decode[[]serve.SiteStatus](t, sresp)
	if len(sites) != 1 || sites[0].Versions != 2 {
		t.Fatalf("/v1/sites = %+v", sites)
	}
}

func TestHTTPPromoteRollback(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)

	extract := func() serve.ExtractResponse {
		resp := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{
			Site: "shop", Page: &serve.PageInput{HTML: testPage(0)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("extract: status %d", resp.StatusCode)
		}
		return decode[serve.ExtractResponse](t, resp)
	}
	if got := extract(); got.Version != 1 {
		t.Fatalf("before promote: v%d", got.Version)
	}

	resp := postJSON(t, hs.URL+"/v1/promote", serve.AdminRequest{Site: "shop", Version: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	admin := decode[serve.AdminResponse](t, resp)
	if admin.ServingVersion != 2 {
		t.Fatalf("promote response = %+v", admin)
	}
	if got := extract(); got.Version != 2 ||
		!strings.HasPrefix(got.Results[0].Records[0], "beta-") {
		t.Fatalf("after promote over HTTP: %+v", got)
	}

	resp = postJSON(t, hs.URL+"/v1/rollback", serve.AdminRequest{Site: "shop"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}
	if got := extract(); got.Version != 1 {
		t.Fatalf("after rollback over HTTP: v%d", got.Version)
	}

	// Error paths.
	if resp := postJSON(t, hs.URL+"/v1/promote",
		serve.AdminRequest{Site: "shop", Version: 99}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote missing version: status %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, hs.URL+"/v1/rollback",
		serve.AdminRequest{Site: "shop"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollback past history: status %d, want 409", resp.StatusCode)
	}
}

func TestHTTPRepairUnconfigured(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)
	resp := postJSON(t, hs.URL+"/v1/repair", serve.RepairRequest{
		Site: "shop", Pages: []string{"<p>a</p>", "<p>b</p>"}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("repair without repairer: status %d, want 501", resp.StatusCode)
	}
	resp = postJSON(t, hs.URL+"/v1/learn", serve.LearnRequest{
		Site: "new", Pages: []string{"<p>a</p>", "<p>b</p>"}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("learn without repairer: status %d, want 501", resp.StatusCode)
	}
}

// TestHTTPLearnCorpusDirConfined: corpus_dir is rejected without a
// configured root, and rejected outside it — the learn endpoint must not
// become an arbitrary server-side file read. The repairer here is a stub
// (never reached: both requests die before submission).
func TestHTTPLearnCorpusDirConfined(t *testing.T) {
	root := t.TempDir()
	d := serve.NewDispatcher(twoVersionStore(t), serve.Options{})
	jm := jobs.New(jobs.Options{})
	t.Cleanup(func() { jm.Drain(context.Background()) })
	srv, err := serve.NewServer(serve.ServerConfig{
		Dispatcher: d,
		Repairer:   &drift.Repairer{},
		Jobs:       jm,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	// No root configured → corpus_dir disabled entirely.
	resp := postJSON(t, hs.URL+"/v1/learn", serve.LearnRequest{Site: "s", CorpusDir: root})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("corpus_dir without root: status %d, want 403", resp.StatusCode)
	}

	jm2 := jobs.New(jobs.Options{})
	t.Cleanup(func() { jm2.Drain(context.Background()) })
	srv2, err := serve.NewServer(serve.ServerConfig{
		Dispatcher:      d,
		Repairer:        &drift.Repairer{},
		Jobs:            jm2,
		LearnCorpusRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := servetest.NewServer(srv2.Handler())
	t.Cleanup(hs2.Close)
	for _, dir := range []string{"/etc", "../..", root + "/../outside"} {
		resp := postJSON(t, hs2.URL+"/v1/learn", serve.LearnRequest{Site: "s", CorpusDir: dir})
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("corpus_dir %q: status %d, want 403", dir, resp.StatusCode)
		}
	}
	// A symlink under the root pointing outside it must not escape.
	outside := t.TempDir()
	if err := os.Symlink(outside, filepath.Join(root, "sneaky")); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, hs2.URL+"/v1/learn", serve.LearnRequest{Site: "s", CorpusDir: "sneaky"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("symlinked corpus_dir: status %d, want 403", resp.StatusCode)
	}

	// An existing directory inside the root is accepted (202; the job
	// itself will fail on the empty dir + stub repairer, which is fine —
	// submission is the test).
	if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, hs2.URL+"/v1/learn", serve.LearnRequest{Site: "s", CorpusDir: "sub"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus_dir under root: status %d, want 202", resp.StatusCode)
	}
}

// TestHTTPJobsEndpointsWithoutManager: a server with no maintenance plane
// still answers the jobs routes sanely.
func TestHTTPJobsEndpointsWithoutManager(t *testing.T) {
	_, hs := newTestServer(t, twoVersionStore(t), nil)
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs list: status %d", resp.StatusCode)
	}
	if list := decode[[]serve.JobSnapshot](t, resp); len(list) != 0 {
		t.Fatalf("jobs list = %+v, want empty", list)
	}
	getResp, err := http.Get(hs.URL + "/v1/jobs/job-000001")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", getResp.StatusCode)
	}
	cresp := postJSON(t, hs.URL+"/v1/jobs/job-000001/cancel", struct{}{})
	if cresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", cresp.StatusCode)
	}
}

func TestHTTPPageCap(t *testing.T) {
	d := serve.NewDispatcher(twoVersionStore(t), serve.Options{})
	srv, err := serve.NewServer(serve.ServerConfig{Dispatcher: d, MaxPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	defer hs.Close()
	pages := []serve.PageInput{{HTML: "a"}, {HTML: "b"}, {HTML: "c"}}
	resp := postJSON(t, hs.URL+"/v1/extract", serve.ExtractRequest{Site: "shop", Pages: pages})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over page cap: status %d, want 413", resp.StatusCode)
	}
}
