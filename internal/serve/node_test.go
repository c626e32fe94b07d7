package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/corpus"
	"autowrap/internal/drift"
	"autowrap/internal/engine"
	"autowrap/internal/jobs"
	"autowrap/internal/lr"
	"autowrap/internal/store"
	"autowrap/internal/testutil/leakcheck"
	"autowrap/internal/testutil/race"
)

// nodeTestStore holds two sites; "shop" has v1 (alpha records, serving) and
// a stored v2 candidate (beta records) for promote and rollback to move
// between.
func nodeTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	meta := store.Meta{Profile: &store.Profile{Pages: 4, MeanRecords: 3}}
	for _, site := range []string{"shop", "mart"} {
		if _, err := st.Put(site, &lr.Compiled{Left: `<div class="a">`, Right: "</div>"}, meta); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.PutCandidate("shop", &lr.Compiled{Left: `<div class="b">`, Right: "</div>"}, meta); err != nil {
		t.Fatal(err)
	}
	return st
}

func nodeTestPage(i int) string {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for r := 0; r < 3; r++ {
		fmt.Fprintf(&sb, `<div class="a">alpha-%d-%d</div><div class="b">beta-%d-%d</div>`, i, r, i, r)
	}
	sb.WriteString("</body></html>")
	return sb.String()
}

// noLearner is a LearnSpec for tests that need the maintenance plane on but
// never look at a job's outcome: every job fails at once.
func noLearner(site string, _ *corpus.Corpus) (engine.SiteSpec, error) {
	return engine.SiteSpec{}, fmt.Errorf("no learner in this test")
}

// drainNode ends a test's node the way a process does.
func drainNode(t *testing.T, s *Server) {
	t.Helper()
	s.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// timings are the fields of a response that depend on the clock.
var timings = regexp.MustCompile(`"(elapsed_us|uptime_sec|qps|latency_[a-z0-9]+_ms)":[0-9.e+-]+`)

// TestNodeMatchesHandAssembly pins NewNode to the assembly it replaces: a
// server put together by hand the way bench/layers.go's daemonServer does
// (plus a repairer, for the 202) and a node from the same options answer a
// table of requests with the same status, headers and body bytes, and the
// single-page extract allocates the same through both.
func TestNodeMatchesHandAssembly(t *testing.T) {
	leakcheck.Check(t)
	const maxPages = 4

	handStore := nodeTestStore(t)
	mon := drift.NewMonitor(drift.Policy{Window: 32})
	hand, err := NewServer(ServerConfig{
		Dispatcher: NewDispatcher(handStore, Options{Monitor: mon}),
		Gate:       NewGate(GateOptions{MaxInFlight: 64}),
		MaxPages:   maxPages,
		Repairer:   &drift.Repairer{Store: handStore, Spec: noLearner, Monitor: mon},
		Jobs:       jobs.New(jobs.Options{IDPrefix: "s0-"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNode(t, hand)
	node, err := NewNode(NodeConfig{
		Store:    nodeTestStore(t),
		Monitor:  &drift.Policy{Window: 32},
		Gate:     GateOptions{MaxInFlight: 64},
		Spec:     noLearner,
		MaxPages: maxPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNode(t, node)

	page := func(i int) string { return fmt.Sprintf(`{"id":"p%d","html":%q}`, i, nodeTestPage(i)) }
	var five []string
	for i := 0; i < maxPages+1; i++ {
		five = append(five, page(i))
	}
	single := `{"site":"shop","page":` + page(0) + `}`
	repair := fmt.Sprintf(`{"site":"shop","pages":[%q,%q]}`, nodeTestPage(0), nodeTestPage(1))
	requests := []struct{ name, method, path, body string }{
		{"sites before traffic", "GET", "/v1/sites", ""},
		{"extract single", "POST", "/v1/extract", single},
		{"extract batch", "POST", "/v1/extract", `{"site":"mart","pages":[` + strings.Join(five[:3], ",") + `]}`},
		{"extract unknown site", "POST", "/v1/extract", `{"site":"nosuch","page":` + page(0) + `}`},
		{"extract over MaxPages", "POST", "/v1/extract", `{"site":"shop","pages":[` + strings.Join(five, ",") + `]}`},
		{"promote", "POST", "/v1/promote", `{"site":"shop","version":2}`},
		{"extract promoted", "POST", "/v1/extract", single},
		{"rollback", "POST", "/v1/rollback", `{"site":"shop"}`},
		{"rollback with nothing to undo", "POST", "/v1/rollback", `{"site":"mart"}`},
		{"repair", "POST", "/v1/repair", repair},
		{"sites after traffic", "GET", "/v1/sites", ""},
		{"healthz", "GET", "/healthz", ""},
	}
	answer := func(h http.Handler, method, path, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		// An explicit Content-Length counts the digits of elapsed_us: check
		// it against the body it came with instead of across servers.
		if cl := rec.Header().Get("Content-Length"); cl != "" {
			if cl != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("%s %s: Content-Length %s on a body of %d bytes", method, path, cl, rec.Body.Len())
			}
			rec.Header().Set("Content-Length", "len(body)")
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d\n", rec.Code)
		rec.Header().Write(&sb)
		sb.Write(timings.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`)))
		return sb.String()
	}
	for _, rq := range requests {
		want, got := answer(hand.Handler(), rq.method, rq.path, rq.body), answer(node.Handler(), rq.method, rq.path, rq.body)
		if got != want {
			t.Errorf("%s: the node answers\n%s\nthe hand-assembled server\n%s", rq.name, got, want)
		}
	}
	if got := answer(node.Handler(), "POST", "/v1/repair", repair); !strings.HasPrefix(got, "202\n") || !strings.Contains(got, `"job_id":"s0-job-000002"`) {
		t.Errorf("second repair on a standalone node answers\n%s\nwant 202 and s0-job-000002", got)
	}

	if race.Enabled {
		return // the race detector bypasses sync.Pool; allocation counts describe production builds
	}
	allocs := func(h http.Handler) float64 {
		var rd bytes.Reader
		req := httptest.NewRequest(http.MethodPost, "/v1/extract", nil)
		req.ContentLength = int64(len(single))
		rec := httptest.NewRecorder()
		return testing.AllocsPerRun(200, func() {
			rd.Reset([]byte(single))
			req.Body = struct {
				*bytes.Reader
				io.Closer
			}{&rd, nil}
			clear(rec.Header())
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("answered %d %s", rec.Code, rec.Body)
			}
		})
	}
	if byHand, byNode := allocs(hand.Handler()), allocs(node.Handler()); byNode != byHand {
		t.Errorf("a single-page extract allocates %.0f times through the node, %.0f through the hand-assembled server", byNode, byHand)
	}
}

// TestNewNodeRefusesAutoRepairWithoutItsParts: auto-repair re-learns with
// the repairer (Spec), acts on the drift monitor's trips and re-learns from
// the recent-page cache, so a Maintainer config without one of them fails
// NewNode with an error naming the missing part, and the full config boots.
func TestNewNodeRefusesAutoRepairWithoutItsParts(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		missing string // "": nothing is, the node boots
		drop    func(*NodeConfig)
	}{
		{"repairer", func(c *NodeConfig) { c.Spec = nil }},
		{"drift monitoring", func(c *NodeConfig) { c.Monitor = nil }},
		{"recent-page cache", func(c *NodeConfig) { c.RecentPages = 0 }},
		{"", func(*NodeConfig) {}},
	} {
		cfg := NodeConfig{
			Store:       nodeTestStore(t),
			RecentPages: 16,
			Monitor:     &drift.Policy{Window: 8},
			Spec:        noLearner,
			Maintainer:  &MaintainerOptions{Interval: time.Hour, Log: log.New(io.Discard, "", 0)},
		}
		tc.drop(&cfg)
		node, err := NewNode(cfg)
		if err == nil {
			drainNode(t, node)
		}
		switch {
		case tc.missing == "" && err != nil:
			t.Errorf("the full config: NewNode: %v", err)
		case tc.missing != "" && (err == nil || !strings.Contains(err.Error(), tc.missing)):
			t.Errorf("without the %s: NewNode error %v, want one naming it", tc.missing, err)
		}
	}
}

// TestTripHookOutlivesDrain: the node's trip hook is the node's, not the
// maintainer's. While auto-repair runs a trip is logged, audited and
// enqueues a repair; once the node drains (which stops the maintainer) a
// trip is still logged with its shard and audited — exactly once — and
// enqueues nothing.
func TestTripHookOutlivesDrain(t *testing.T) {
	leakcheck.Check(t)
	led, err := audit.Open(filepath.Join(t.TempDir(), "audit.jsonl"), audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	// Only the trip hook writes to the node's log here, on the goroutine
	// that serves the tripping request: this one.
	var logged bytes.Buffer
	node, err := NewNode(NodeConfig{
		Store:       nodeTestStore(t),
		RecentPages: 16,
		Monitor:     &drift.Policy{Window: 8, MinPages: 4},
		Spec:        noLearner,
		Maintainer:  &MaintainerOptions{Interval: time.Hour, Log: log.New(io.Discard, "", 0)},
		Shard:       3,
		Audit:       led,
		Log:         log.New(&logged, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pages the wrapper finds nothing on: eight of them fill the window
	// with empties and trip the site.
	trip := func(site string) {
		t.Helper()
		body := `{"site":"` + site + `","pages":[` + strings.Repeat(`{"html":"<p>redesigned</p>"},`, 7) + `{"html":"<p>redesigned</p>"}]}`
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/extract", strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("extract %s: %d %s", site, rec.Code, rec.Body)
		}
		if h, ok := node.Dispatcher().Monitor().Site(site); !ok || h.Stats().Trips != 1 {
			t.Fatalf("%s did not trip exactly once: %+v", site, node.Dispatcher().Monitor().Snapshot())
		}
	}
	count := func(event, site string) (n int) {
		for _, r := range led.Recent(0) {
			if r.Event == event && r.Site == site && r.Shard == 3 {
				n++
			}
		}
		return n
	}

	trip("shop")
	if n := len(node.Jobs().List()); n != 1 {
		t.Fatalf("a trip with auto-repair running enqueued %d jobs, want 1", n)
	}
	if count(audit.EventDriftTrip, "shop") != 1 || count(audit.EventAutoRepair, "shop") != 1 {
		t.Fatalf("ledger after the first trip: %+v", led.Recent(0))
	}

	drainNode(t, node)
	trip("mart")
	if n := count(audit.EventDriftTrip, "mart"); n != 1 {
		t.Errorf("a trip after the drain began left %d drift-trip records, want 1: %+v", n, led.Recent(0))
	}
	if n := strings.Count(logged.String(), "DRIFT TRIPPED (shard 3): "); n != 2 {
		t.Errorf("the log has %d trip lines, want one per trip:\n%s", n, logged.String())
	}
	if n := len(node.Jobs().List()); n != 1 || count(audit.EventAutoRepair, "mart") != 0 {
		t.Errorf("a trip after the drain began enqueued a job: %d jobs, ledger %+v", n, led.Recent(0))
	}
}

// TestTripsRaceDrain trips eight sites from eight goroutines while the node
// begins to drain: whichever side wins each race, every trip is audited
// exactly once, nothing is enqueued after the job plane closed, and the
// maintainer's scanner is gone when the drain returns (leakcheck).
func TestTripsRaceDrain(t *testing.T) {
	leakcheck.Check(t)
	led, err := audit.Open(filepath.Join(t.TempDir(), "audit.jsonl"), audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	st := store.New()
	const sites = 8
	for i := 0; i < sites; i++ {
		if _, err := st.Put(fmt.Sprintf("site-%d", i), &lr.Compiled{Left: "<u>", Right: "</u>"}, store.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	quiet := log.New(io.Discard, "", 0)
	node, err := NewNode(NodeConfig{
		Store:       st,
		RecentPages: 16,
		Monitor:     &drift.Policy{Window: 8, MinPages: 4},
		Spec:        noLearner,
		Jobs:        jobs.Options{QueueDepth: sites},
		Maintainer:  &MaintainerOptions{Interval: time.Millisecond, Log: quiet},
		Audit:       led,
		Log:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"pages":[` + strings.Repeat(`{"html":"<p>redesigned</p>"},`, 7) + `{"html":"<p>redesigned</p>"}],"site":"site-`
	var wg sync.WaitGroup
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			node.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/extract", strings.NewReader(body+strconv.Itoa(i)+`"}`)))
			if rec.Code != 200 {
				t.Errorf("extract site-%d: %d %s", i, rec.Code, rec.Body)
			}
		}(i)
	}
	drainNode(t, node)
	wg.Wait()

	trips, repairs := 0, 0
	for _, r := range led.Recent(0) {
		switch r.Event {
		case audit.EventDriftTrip:
			trips++
		case audit.EventAutoRepair:
			repairs++
		}
	}
	if trips != sites {
		t.Errorf("%d drift-trip records for %d tripped sites: %+v", trips, sites, led.Recent(0))
	}
	if n := len(node.Jobs().List()); n != repairs || n > sites {
		t.Errorf("%d jobs on the plane, %d auto-repair records, %d sites", n, repairs, sites)
	}
	for _, j := range node.Jobs().List() {
		if !j.State.Terminal() {
			t.Errorf("job %s is still %s after the drain", j.ID, j.State)
		}
	}
}
