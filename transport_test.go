// End-to-end acceptance tests for the fleet transport seam (ISSUE 10):
// the same fleet logic runs in-process (the nodes themselves: direct
// calls) and across real HTTP boundaries (httpShard: a forwarding front
// end over independently booted shard servers), and the two transports
// are observably identical — byte-identical extract responses, matching
// gate ledgers, equivalent audit chains. Plus the ring-agreement
// contract: a front and a shard that disagree on the ring refuse each
// other loudly (handshake failure at boot, 503 per request), and a
// shard refuses sites it does not own (421).
package autowrap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"autowrap"
	"autowrap/internal/audit"
	"autowrap/internal/dataset"
	"autowrap/internal/gen"
	"autowrap/internal/jobs"
	"autowrap/internal/serve"
	"autowrap/internal/serve/servetest"
	"autowrap/internal/shard"
	"autowrap/internal/store/filestore"
)

// learnRegistry learns v1 wrappers for n dealer sites and returns the
// sites plus the saved registry path.
func learnRegistry(t *testing.T, dir string, n int) ([]*gen.Site, autowrap.Annotator, string) {
	t.Helper()
	ds, err := dataset.Dealers(dataset.DealersOptions{NumSites: n, NumPages: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	newInductor := func(c *autowrap.Corpus) (autowrap.Inductor, error) {
		return autowrap.NewXPathInductor(c), nil
	}
	var specs []autowrap.BatchSite
	for _, site := range ds.Sites {
		specs = append(specs, autowrap.BatchSite{
			Name: site.Name, Corpus: site.Corpus, Annotator: ds.Annotator,
			NewInductor: newInductor,
			Config:      autowrap.NewLearnConfig(autowrap.GenericModels(site.Corpus), autowrap.Options{}),
		})
	}
	batch, err := autowrap.LearnBatch(context.Background(), specs, autowrap.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := autowrap.NewWrapperStore()
	if got, err := autowrap.StoreBatch(st, batch); got != n || err != nil {
		t.Fatalf("StoreBatch: n=%d err=%v", got, err)
	}
	path := filepath.Join(dir, "wrappers.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	return ds.Sites, ds.Annotator, path
}

// shardHandler boots one shard process's route table the way wrapserved
// -role shard does: a router over the ring whose only node is partition k,
// with its own backend and audit ledger, every other partition answered
// 421 and the ring pinned for per-request agreement checks.
func shardHandler(t *testing.T, ring *shard.Ring, k int, storePath, auditPath string,
	annot autowrap.Annotator) http.Handler {
	t.Helper()
	be, err := filestore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	part, err := be.LoadPartition(ring, k)
	if err != nil {
		t.Fatal(err)
	}
	var led *audit.Ledger
	if auditPath != "" {
		led, err = audit.Open(auditPath, audit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { led.Close() })
	}
	cfg := serve.NodeConfig{
		Store:   part,
		Backend: be,
		Shard:   k,
		Audit:   led,
	}
	if annot != nil {
		cfg.Spec = xpathSpec(annot)
		cfg.Jobs = jobs.Options{Workers: 1, QueueDepth: 4}
	}
	router, err := serve.NewShardRouter(ring, func(shardID int) (*serve.Server, error) {
		if shardID != k {
			return nil, nil // another process's partition
		}
		srv, err := serve.NewNode(cfg)
		if err == nil {
			t.Cleanup(func() { srv.Close() })
		}
		return srv, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return router.Handler()
}

// xpathSpec is the learn recipe of the maintenance plane under test: the
// xpath inductor over annot.
func xpathSpec(annot autowrap.Annotator) func(string, *autowrap.Corpus) (autowrap.BatchSite, error) {
	newInductor := func(c *autowrap.Corpus) (autowrap.Inductor, error) {
		return autowrap.NewXPathInductor(c), nil
	}
	return func(site string, c *autowrap.Corpus) (autowrap.BatchSite, error) {
		return autowrap.BatchSite{Annotator: annot, NewInductor: newInductor,
			Config: autowrap.NewLearnConfig(autowrap.GenericModels(c), autowrap.Options{})}, nil
	}
}

// elapsedRe masks the one legitimately nondeterministic byte sequence
// in an extract response — per-page wall time — so parity can demand
// byte equality on everything else.
var elapsedRe = regexp.MustCompile(`"elapsed_us":[0-9]+`)

// rawPost posts body and returns status + raw response bytes (with
// elapsed_us masked) — the parity comparisons are byte-level, not
// decoded-shape-level.
func rawPost(t *testing.T, url string, v any) (int, []byte) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, elapsedRe.ReplaceAll(out, []byte(`"elapsed_us":0`))
}

// TestTransportParityLocalVsForward runs the same request script against
// two deployments of the same registry — an in-process two-shard fleet
// and a forwarding front over two shard servers reached across real HTTP
// — and demands the transports be indistinguishable: identical extract
// bytes, identical error answers, matching gate ledgers, and audit
// chains that verify and carry the same lifecycle events.
func TestTransportParityLocalVsForward(t *testing.T) {
	dir := t.TempDir()
	sites, annot, regPath := learnRegistry(t, dir, 3)
	const shards = 2
	ring := shard.NewRing(shards, 64)

	// Deployment A: the in-process fleet (the nodes are the transport), one
	// shared backend + one shared audit ledger, as wrapserved -shards 2.
	localStore := filepath.Join(dir, "local.json")
	copyFile(t, regPath, localStore)
	localAudit := filepath.Join(dir, "local-audit.jsonl")
	beLocal, err := filestore.Open(localStore)
	if err != nil {
		t.Fatal(err)
	}
	ledLocal, err := audit.Open(localAudit, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ledLocal.Close() })
	localRouter, err := serve.NewShardRouter(ring, func(k int) (*serve.Server, error) {
		part, err := beLocal.LoadPartition(ring, k)
		if err != nil {
			return nil, err
		}
		return serve.NewNode(serve.NodeConfig{
			Store:   part,
			Backend: beLocal,
			Shard:   k,
			Audit:   ledLocal,
			Spec:    xpathSpec(annot),
			Jobs:    jobs.Options{Workers: 1, QueueDepth: 4},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	localFront := servetest.NewServer(localRouter.Handler())
	defer localFront.Close()

	// Deployment B: shard-role servers behind real listeners, fronted by
	// the forwarding router (httpShard transport). Each shard has its own
	// store file and audit ledger, as independently booted processes do.
	var peers []string
	var shardAudits []string
	for k := 0; k < shards; k++ {
		sp := filepath.Join(dir, fmt.Sprintf("shard%d.json", k))
		copyFile(t, regPath, sp)
		ap := filepath.Join(dir, fmt.Sprintf("shard%d-audit.jsonl", k))
		shardAudits = append(shardAudits, ap)
		hs := servetest.NewServer(shardHandler(t, ring, k, sp, ap, annot))
		t.Cleanup(hs.Close)
		peers = append(peers, strings.TrimPrefix(hs.URL, "http://"))
	}
	fwdRouter, err := serve.NewForwardRouter(ring, peers, serve.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fwdFront := servetest.NewServer(fwdRouter.Handler())
	defer fwdFront.Close()

	// Byte-identical extract responses for every site, single and batch.
	for _, site := range sites {
		for _, req := range []serve.ExtractRequest{
			{Site: site.Name, Page: &serve.PageInput{ID: "p0", HTML: site.Corpus.Pages[0].HTML}},
			{Site: site.Name,
				Pages: []serve.PageInput{
					{ID: "p1", HTML: site.Corpus.Pages[1].HTML},
					{ID: "p2", HTML: site.Corpus.Pages[2].HTML},
				}},
		} {
			lc, lb := rawPost(t, localFront.URL+"/v1/extract", req)
			fc, fb := rawPost(t, fwdFront.URL+"/v1/extract", req)
			if lc != http.StatusOK {
				t.Fatalf("%s local extract: status %d: %s", site.Name, lc, lb)
			}
			if fc != lc || !bytes.Equal(fb, lb) {
				t.Fatalf("%s transport divergence:\nlocal   %d %s\nforward %d %s",
					site.Name, lc, lb, fc, fb)
			}
		}
	}

	// Error paths answer identically through both transports.
	type errCase struct {
		path string
		body any
	}
	for _, c := range []errCase{
		{"/v1/extract", serve.ExtractRequest{Site: "nobody.example.com",
			Page: &serve.PageInput{HTML: "<p>x</p>"}}},
		{"/v1/promote", serve.AdminRequest{Site: sites[0].Name, Version: 99}},
		{"/v1/rollback", serve.AdminRequest{Site: "nobody.example.com"}},
	} {
		lc, lb := rawPost(t, localFront.URL+c.path, c.body)
		fc, fb := rawPost(t, fwdFront.URL+c.path, c.body)
		if fc != lc || !bytes.Equal(fb, lb) {
			t.Fatalf("%s error divergence:\nlocal   %d %s\nforward %d %s", c.path, lc, lb, fc, fb)
		}
	}

	// The same learn lands on the owning shard in both deployments and
	// yields the same job identity (the s<k>- prefix IS the owner).
	newSite, _, _ := maintPairSeed(t, 4004)
	var pages []string
	for _, p := range newSite.Corpus.Pages {
		pages = append(pages, p.HTML)
	}
	learnReq := serve.LearnRequest{Site: newSite.Name + "-parity", Pages: pages}
	var accLocal, accFwd serve.JobAccepted
	if code := postJSON(t, localFront.URL+"/v1/learn", learnReq, &accLocal); code != http.StatusAccepted {
		t.Fatalf("local learn: status %d", code)
	}
	if code := postJSON(t, fwdFront.URL+"/v1/learn", learnReq, &accFwd); code != http.StatusAccepted {
		t.Fatalf("forward learn: status %d", code)
	}
	if accLocal.JobID != accFwd.JobID {
		t.Fatalf("job identity diverged: local %q, forward %q", accLocal.JobID, accFwd.JobID)
	}
	waitJob(t, localFront.URL, accLocal.JobID)
	waitJob(t, fwdFront.URL, accFwd.JobID) // polled THROUGH the forwarding front

	lc, lb := rawPost(t, localFront.URL+"/v1/extract", serve.ExtractRequest{
		Site: learnReq.Site, Page: &serve.PageInput{ID: "n0", HTML: pages[0]}})
	fc, fb := rawPost(t, fwdFront.URL+"/v1/extract", serve.ExtractRequest{
		Site: learnReq.Site, Page: &serve.PageInput{ID: "n0", HTML: pages[0]}})
	if lc != http.StatusOK || fc != lc || !bytes.Equal(fb, lb) {
		t.Fatalf("learned-site divergence:\nlocal   %d %s\nforward %d %s", lc, lb, fc, fb)
	}

	// Gate ledgers match: both fleets admitted the same requests.
	var mLocal, mFwd serve.MetricsResponse
	getJSON(t, localFront.URL+"/metrics", &mLocal)
	getJSON(t, fwdFront.URL+"/metrics", &mFwd)
	if mLocal.Gate.Admitted != mFwd.Gate.Admitted || mLocal.Gate.Rejected != mFwd.Gate.Rejected ||
		mLocal.Gate.TimedOut != mFwd.Gate.TimedOut {
		t.Fatalf("gate ledgers diverged:\nlocal   %+v\nforward %+v", mLocal.Gate, mFwd.Gate)
	}
	if mLocal.Fleet.Requests != mFwd.Fleet.Requests {
		t.Fatalf("request ledgers diverged: local %d, forward %d",
			mLocal.Fleet.Requests, mFwd.Fleet.Requests)
	}

	// Audit chains: every ledger verifies from genesis, and the shared
	// local chain carries exactly the lifecycle events the per-process
	// chains carry between them.
	if _, err := audit.VerifyFile(localAudit); err != nil {
		t.Fatalf("local audit chain: %v", err)
	}
	var fwdEvents []string
	for _, ap := range shardAudits {
		if _, err := audit.VerifyFile(ap); err != nil {
			t.Fatalf("shard audit chain %s: %v", ap, err)
		}
		fwdEvents = append(fwdEvents, auditEventKeys(t, ap)...)
	}
	localEvents := auditEventKeys(t, localAudit)
	if !sameMultiset(localEvents, fwdEvents) {
		t.Fatalf("audit events diverged:\nlocal   %v\nforward %v", localEvents, fwdEvents)
	}
}

// TestForwardRingAgreement pins the topology-mismatch contract end to
// end: boot-time handshake refusal, per-request 503 on a pinned
// mismatch, and 421 for a site the shard does not own.
func TestForwardRingAgreement(t *testing.T) {
	dir := t.TempDir()
	sites, _, regPath := learnRegistry(t, dir, 3)

	// A shard that believes the ring is N=3.
	ring3 := shard.NewRing(3, 64)
	sp := filepath.Join(dir, "shard0.json")
	copyFile(t, regPath, sp)
	hs := servetest.NewServer(shardHandler(t, ring3, 0, sp, "", nil))
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")

	// Handshake: a front built for N=4 must refuse the reachable peer by
	// name, wrapping ErrRingMismatch (the unreachable peers only degrade).
	ring4 := shard.NewRing(4, 64)
	_, err := serve.NewForwardRouter(ring4,
		[]string{addr, "127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1"}, serve.ForwardOptions{})
	if !errors.Is(err, serve.ErrRingMismatch) {
		t.Fatalf("N=4 front over N=3 shard: err = %v, want ErrRingMismatch", err)
	}

	// Per-request: skip the handshake so the mismatched request reaches
	// the shard, which must 503 it with the named error — never serve it.
	ring1 := shard.NewRing(1, 64)
	fr, err := serve.NewForwardRouter(ring1, []string{addr}, serve.ForwardOptions{SkipHandshake: true})
	if err != nil {
		t.Fatal(err)
	}
	front := servetest.NewServer(fr.Handler())
	defer front.Close()
	code, body := rawPost(t, front.URL+"/v1/extract", serve.ExtractRequest{
		Site: sites[0].Name, Page: &serve.PageInput{HTML: sites[0].Corpus.Pages[0].HTML}})
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), serve.ErrRingMismatch.Error()) {
		t.Fatalf("pinned mismatch answered %d %s, want 503 naming %q",
			code, body, serve.ErrRingMismatch.Error())
	}

	// Ownership: a direct (unpinned) request for a site another shard
	// owns answers 421 with the owner named.
	victim := ""
	for _, s := range sites {
		if ring3.Owner(s.Name) != 0 {
			victim = s.Name
			break
		}
	}
	if victim == "" {
		t.Skip("ring assigned every generated site to shard 0")
	}
	code, body = rawPost(t, hs.URL+"/v1/extract", serve.ExtractRequest{
		Site: victim, Page: &serve.PageInput{HTML: "<p>x</p>"}})
	if code != http.StatusMisdirectedRequest || !strings.Contains(string(body), serve.ErrNotOwner.Error()) {
		t.Fatalf("non-owned site answered %d %s, want 421 naming %q",
			code, body, serve.ErrNotOwner.Error())
	}
}

// TestForwardPartialAvailability kills one shard process's listener and
// demands the fleet degrade by partition, not globally: the dead shard's
// sites answer 503 naming the shard, every other site keeps serving 200.
func TestForwardPartialAvailability(t *testing.T) {
	dir := t.TempDir()
	sites, _, regPath := learnRegistry(t, dir, 3)
	const shards = 2
	ring := shard.NewRing(shards, 64)

	var peers []string
	var backends []*servetest.Server
	for k := 0; k < shards; k++ {
		sp := filepath.Join(dir, fmt.Sprintf("shard%d.json", k))
		copyFile(t, regPath, sp)
		hs := servetest.NewServer(shardHandler(t, ring, k, sp, "", nil))
		t.Cleanup(hs.Close)
		backends = append(backends, hs)
		peers = append(peers, strings.TrimPrefix(hs.URL, "http://"))
	}
	fr, err := serve.NewForwardRouter(ring, peers, serve.ForwardOptions{
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := servetest.NewServer(fr.Handler())
	defer front.Close()

	const victim = 1
	backends[victim].Close()

	for _, site := range sites {
		code, body := rawPost(t, front.URL+"/v1/extract", serve.ExtractRequest{
			Site: site.Name, Page: &serve.PageInput{ID: "p0", HTML: site.Corpus.Pages[0].HTML}})
		if ring.Owner(site.Name) == victim {
			want := fmt.Sprintf("shard %d", victim)
			if code != http.StatusServiceUnavailable || !strings.Contains(string(body), want) {
				t.Fatalf("%s (dead shard): %d %s, want 503 naming %q", site.Name, code, body, want)
			}
		} else if code != http.StatusOK {
			t.Fatalf("%s (surviving shard): status %d %s, want 200", site.Name, code, body)
		}
	}

	// The front itself stays healthy and names the dead peer.
	var h serve.HealthzResponse
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front healthz with one dead peer: %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(h.Peers) != shards || h.Peers[victim].OK || h.Peers[victim].Error == "" {
		t.Fatalf("front healthz peers = %+v, want shard %d marked unavailable", h.Peers, victim)
	}
	if !h.Peers[1-victim].OK {
		t.Fatalf("surviving peer reported down: %+v", h.Peers)
	}
}

// TestForwardRingMismatchMidFlight is the robustness-table row "ring
// mismatch mid-flight": a front boots over two agreeing shard processes,
// then shard 1's process is replaced, on the same address, by one booted
// for a different ring. Partition 1's sites answer 503 naming the
// mismatch, the shard and its address; partition 0's keep answering 200;
// and no answer carries records other than the ones its site served
// before the swap.
func TestForwardRingMismatchMidFlight(t *testing.T) {
	dir := t.TempDir()
	sites, _, regPath := learnRegistry(t, dir, 4)
	ring := shard.NewRing(2, 64)
	var peers []string
	var backends []*servetest.Server
	for k := 0; k < 2; k++ {
		sp := filepath.Join(dir, fmt.Sprintf("shard%d.json", k))
		copyFile(t, regPath, sp)
		hs := servetest.NewServer(shardHandler(t, ring, k, sp, "", nil))
		t.Cleanup(hs.Close)
		backends = append(backends, hs)
		peers = append(peers, strings.TrimPrefix(hs.URL, "http://"))
	}
	fr, err := serve.NewForwardRouter(ring, peers, serve.ForwardOptions{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := servetest.NewServer(fr.Handler())
	defer front.Close()

	extract := func(site *gen.Site) (int, []byte) {
		return rawPost(t, front.URL+"/v1/extract", serve.ExtractRequest{
			Site: site.Name, Page: &serve.PageInput{ID: "p0", HTML: site.Corpus.Pages[0].HTML}})
	}
	before := map[string][]byte{}
	owners := map[int]bool{}
	for _, site := range sites {
		code, body := extract(site)
		if code != http.StatusOK {
			t.Fatalf("%s before the swap: %d %s", site.Name, code, body)
		}
		before[site.Name] = body
		owners[ring.Owner(site.Name)] = true
	}
	if !owners[0] || !owners[1] {
		t.Skip("ring assigned every generated site to one partition")
	}

	// Shard 1's process goes away and another comes up on its address,
	// booted as partition 1 of a ring with other vnodes.
	backends[1].Close()
	ln, err := net.Listen("tcp", peers[1])
	if err != nil {
		t.Fatal(err)
	}
	sp := filepath.Join(dir, "stranger.json")
	copyFile(t, regPath, sp)
	stranger := serve.NewHTTPServer(shardHandler(t, shard.NewRing(2, 32), 1, sp, "", nil), log.New(io.Discard, "", 0))
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = stranger.Serve(ln)
	}()
	t.Cleanup(func() {
		stranger.Close()
		<-served
	})

	for _, site := range sites {
		code, body := extract(site)
		if ring.Owner(site.Name) == 0 {
			if code != http.StatusOK || !bytes.Equal(body, before[site.Name]) {
				t.Errorf("%s (partition 0) after the swap: %d %s, want the 200 it answered before: %s", site.Name, code, body, before[site.Name])
			}
			continue
		}
		for _, want := range []string{serve.ErrRingMismatch.Error(), "shard 1", peers[1]} {
			if code != http.StatusServiceUnavailable || !strings.Contains(string(body), want) {
				t.Errorf("%s (partition 1) after the swap: %d %s, want 503 naming %q", site.Name, code, body, want)
			}
		}
	}
}

// copyFile copies src to dst (registry fixtures for independent shards).
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// getJSON GETs url and decodes the 200 body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// auditEventKeys reads a ledger file and returns one "event/site/version"
// key per non-checkpoint record — the transport-independent content of
// the chain (hashes and timestamps legitimately differ per process).
func auditEventKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec audit.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("audit record %s: %v", line, err)
		}
		if rec.Event == audit.EventCheckpoint {
			continue
		}
		keys = append(keys, fmt.Sprintf("%s/%s/v%d", rec.Event, rec.Site, rec.Version))
	}
	return keys
}

// sameMultiset reports whether a and b hold the same elements with the
// same multiplicities, order-free.
func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, k := range a {
		counts[k]++
	}
	for _, k := range b {
		if counts[k]--; counts[k] < 0 {
			return false
		}
	}
	return true
}
