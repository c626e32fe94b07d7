package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/corpus"
	"autowrap/internal/dataset"
	"autowrap/internal/drift"
	"autowrap/internal/engine"
	"autowrap/internal/jobs"
	"autowrap/internal/lr"
	"autowrap/internal/serve"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/store/filestore"
	"autowrap/internal/store/logstore"
	"autowrap/internal/testutil/leakcheck"
)

// Serving-plane sizing. Small on purpose: a gate of 8 slots and a job
// queue of 4 make overload and queue-full chaos reachable at smoke QPS.
const (
	gateInFlight   = 8
	gateQueue      = 8
	jobWorkers     = 1
	jobQueueDepth  = 4
	requestTimeout = 5 * time.Second
	drainBudget    = 15 * time.Second
	numFlips       = 2
	numLearnExtras = 2
	pagesPerSite   = 10
)

// soakSite is one learned dealer site plus its drifted twin: same record
// data, template mutated. A drift storm flips source, after which traffic
// serves the drifted pages and the learned wrapper collapses.
type soakSite struct {
	name    string
	clean   []string
	drifted []string
	// source selects the pages traffic serves: 0 clean, 1 drifted.
	source atomic.Int32
	// preVersion is the serving version captured when the storm hit;
	// healed means a later version answers with records on drifted pages.
	preVersion atomic.Int64
	stormed    atomic.Bool
	healed     atomic.Bool
}

func (s *soakSite) pages() []string {
	if s.source.Load() == 1 {
		return s.drifted
	}
	return s.clean
}

// flipSite is a hand-built two-family site: v1 (promoted) extracts the
// "alpha-" records, v2 (candidate) the "beta-" records. Promote/rollback
// flips alternate between them under live traffic; family purity says no
// response may ever mix the two or mislabel its version.
type flipSite struct {
	name  string
	pages []string
}

type harness struct {
	o       options
	log     *log.Logger
	viol    *violations
	ledger  clientLedger
	workDir string

	sites  []*soakSite
	extras []*soakSite // learned at runtime via /v1/learn
	flips  []*flipSite
	spec   drift.LearnSpec // the daemon's learn recipe over the dataset's dictionary

	storePath string
	logDir    string // segment dir when -store-backend=log
	auditPath string
	backend   store.Backend
	aud       *audit.Ledger
	// garbageSeg is the segment a mid-run torn frame was injected into
	// ("" until that fault fires). Written by the chaos scheduler, read by
	// the post-teardown drill; runTraffic's WaitGroup orders the two.
	garbageSeg string

	baseURL string
	addr    string
	ln      net.Listener
	hs      *serve.HTTPServer
	// plane is what the listener serves and the drain drains: the router
	// over the nodes. servers are the nodes themselves, for the checks that
	// read a node's own ledgers.
	plane     *serve.ShardRouter
	servers   []*serve.Server
	client    *http.Client
	transport *http.Transport

	baseline leakcheck.Snapshot

	selfCanceled sync.Map // job id -> true: cancels the harness itself issued
	learnsLeft   atomic.Int64

	heapMu      sync.Mutex
	heapSamples []uint64

	monitorStop chan struct{}
	monitorDone chan struct{}
	serveErr    chan error
}

// newHarness generates corpora, learns the initial wrappers, records the
// goroutine baseline, and boots the serving plane.
func newHarness(o options) (*harness, error) {
	h := &harness{
		o:           o,
		log:         log.New(os.Stderr, "soak: ", log.LstdFlags),
		viol:        &violations{},
		monitorStop: make(chan struct{}),
		monitorDone: make(chan struct{}),
		serveErr:    make(chan error, 1),
	}
	h.learnsLeft.Store(6)
	if err := h.buildCorpora(); err != nil {
		return nil, err
	}
	st, err := h.learnStore()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "soak-*")
	if err != nil {
		return nil, err
	}
	h.workDir = dir
	h.storePath = filepath.Join(dir, "wrappers.json")
	h.logDir = filepath.Join(dir, "wrappers.log")
	h.auditPath = filepath.Join(dir, "audit.jsonl")
	if err := st.Save(h.storePath); err != nil {
		return nil, err
	}

	// Baseline AFTER corpora + learning (their worker pools are ephemeral
	// and already gone) but BEFORE the plane boots: teardown must return
	// us exactly here.
	time.Sleep(100 * time.Millisecond)
	h.baseline = leakcheck.Take()

	if err := h.boot(); err != nil {
		return nil, err
	}
	return h, nil
}

// buildCorpora materializes the dealer sites and their drifted twins
// in-memory (same seed, Drift 2 ⇒ same records, mutated template), plus
// the hand-built flip sites.
func (h *harness) buildCorpora() error {
	opt := dataset.DealersOptions{
		NumSites: h.o.sites + numLearnExtras,
		NumPages: pagesPerSite,
		Seed:     h.o.seed + 1000,
	}
	ds, err := dataset.Dealers(opt)
	if err != nil {
		return err
	}
	opt.Drift = 2
	dsm, err := dataset.Dealers(opt)
	if err != nil {
		return err
	}
	if h.spec, err = engine.Recipe(ds.Annotator, engine.KindXPath); err != nil {
		return err
	}
	for i, site := range ds.Sites {
		s := &soakSite{name: site.Name}
		for _, p := range site.Corpus.Pages {
			s.clean = append(s.clean, p.HTML)
		}
		for _, p := range dsm.Sites[i].Corpus.Pages {
			s.drifted = append(s.drifted, p.HTML)
		}
		if i < h.o.sites {
			h.sites = append(h.sites, s)
		} else {
			h.extras = append(h.extras, s)
		}
	}
	for k := 0; k < numFlips; k++ {
		f := &flipSite{name: fmt.Sprintf("flip-%d", k)}
		for i := 0; i < 6; i++ {
			f.pages = append(f.pages, flipPage(i))
		}
		h.flips = append(h.flips, f)
	}
	return nil
}

// flipPage renders one two-family page: three alpha records and three
// beta records, so either flip wrapper extracts exactly three.
func flipPage(i int) string {
	var b []byte
	b = append(b, "<html><body>"...)
	for r := 0; r < 3; r++ {
		b = append(b, fmt.Sprintf(`<div class="a">alpha-%d-%d</div>`, i, r)...)
	}
	for r := 0; r < 3; r++ {
		b = append(b, fmt.Sprintf(`<div class="b">beta-%d-%d</div>`, i, r)...)
	}
	b = append(b, "</body></html>"...)
	return string(b)
}

// learnStore learns v1 wrappers for every dealer site through the real
// batch engine and hand-stages the flip sites (v1 alpha promoted, v2 beta
// candidate).
func (h *harness) learnStore() (*store.Store, error) {
	specs := make([]engine.SiteSpec, len(h.sites))
	for i, s := range h.sites {
		var err error
		if specs[i], err = h.spec(s.name, corpus.ParseHTML(s.clean)); err != nil {
			return nil, err
		}
	}
	batch, err := engine.LearnBatch(context.Background(), specs, engine.Options{})
	if err != nil {
		return nil, err
	}
	st := store.New()
	if n, err := st.PutBatch(batch); err != nil || n != len(h.sites) {
		return nil, fmt.Errorf("learned %d/%d sites: %v", n, len(h.sites), err)
	}
	for _, f := range h.flips {
		meta := store.Meta{Profile: &store.Profile{Pages: 4, MeanRecords: 3}}
		if _, err := st.Put(f.name, &lr.Compiled{Left: `<div class="a">`, Right: "</div>"}, meta); err != nil {
			return nil, err
		}
		if _, err := st.PutCandidate(f.name, &lr.Compiled{Left: `<div class="b">`, Right: "</div>"}, meta); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// boot builds the daemon's nodes by calling the daemon's constructor,
// serve.NewNode — one per partition of the ring, under one router — and
// mounts the router on a real localhost listener. Running in-process
// keeps every internal ledger inspectable while traffic still crosses a
// genuine TCP + HTTP boundary.
func (h *harness) boot() error {
	// The durability plane under test: the whole fleet shares one backend
	// and one audit ledger, exactly as wrapserved wires them.
	switch h.o.storeBackend {
	case "file":
		fb, err := filestore.Open(h.storePath)
		if err != nil {
			return err
		}
		h.backend = fb
	case "log":
		lb, err := logstore.Open(h.logDir, logstore.Options{})
		if err != nil {
			return err
		}
		seed, err := store.Load(h.storePath)
		if err != nil {
			return err
		}
		if err := lb.SeedFrom(seed); err != nil {
			return err
		}
		h.backend = lb
	}
	aud, err := audit.Open(h.auditPath, audit.Options{})
	if err != nil {
		return err
	}
	h.aud = aud

	ring := shard.NewRing(h.o.shards, h.o.vnodes)
	router, err := serve.NewShardRouter(ring, func(k int) (*serve.Server, error) {
		st, err := h.backend.LoadPartition(ring, k)
		if err != nil {
			return nil, err
		}
		cfg := serve.NodeConfig{
			Store:          st,
			RecentPages:    64,
			Monitor:        &drift.Policy{Window: 8, MinPages: 4},
			Gate:           serve.GateOptions{MaxInFlight: gateInFlight, MaxQueue: gateQueue, RetryAfter: 50 * time.Millisecond},
			Spec:           h.spec,
			Jobs:           jobs.Options{Workers: jobWorkers, QueueDepth: jobQueueDepth},
			Shard:          k,
			Backend:        h.backend,
			Audit:          h.aud,
			Log:            h.log,
			RequestTimeout: requestTimeout,
			MaxPages:       64,
		}
		if h.o.breakMode != "heal" {
			cfg.Maintainer = &serve.MaintainerOptions{
				Interval: 250 * time.Millisecond,
				MinGap:   1500 * time.Millisecond,
				Log:      h.log,
			}
		}
		srv, err := serve.NewNode(cfg)
		if err == nil {
			h.servers = append(h.servers, srv)
		}
		return srv, err
	})
	if err != nil {
		return err
	}
	h.plane = router

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.ln = ln
	h.addr = ln.Addr().String()
	h.baseURL = "http://" + h.addr
	h.hs = serve.NewHTTPServer(h.plane.Handler(), h.log)
	go func() {
		if err := h.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			h.serveErr <- err
			return
		}
		h.serveErr <- nil
	}()

	h.transport = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	h.client = &http.Client{Transport: h.transport, Timeout: 60 * time.Second}
	return nil
}

// drainAndTeardown finishes the production shutdown ordering — readiness
// already flipped (run did that to stop auto-repair ahead of the settled
// ledger checks), now HTTP shutdown (in-flight requests finish) and the
// job planes run dry — under a watchdog: a drain that cannot finish inside
// its budget is itself an invariant violation, and the harness moves on to
// the post-mortem checks instead of hanging on a stuck job forever.
func (h *harness) drainAndTeardown() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
		defer cancel()
		if err := h.hs.Shutdown(ctx); err != nil {
			h.viol.add("clean-drain", fmt.Sprintf("http shutdown: %v", err))
		}
		if err := h.plane.Drain(ctx); err != nil {
			h.viol.add("clean-drain", fmt.Sprintf("job drain: %v", err))
		}
		if err := h.backend.Close(); err != nil {
			h.viol.add("clean-drain", fmt.Sprintf("store backend close: %v", err))
		}
		if err := h.aud.Close(); err != nil {
			h.viol.add("clean-drain", fmt.Sprintf("audit ledger close: %v", err))
		}
	}()
	select {
	case <-done:
		if err := <-h.serveErr; err != nil {
			h.viol.add("clean-drain", fmt.Sprintf("http server: %v", err))
		}
	case <-time.After(drainBudget + 10*time.Second):
		h.viol.add("clean-drain", fmt.Sprintf("drain did not complete within %v", drainBudget+10*time.Second))
		h.viol.add("no-stuck-jobs", "drain hung: a job is ignoring cancellation")
	}
	h.transport.CloseIdleConnections()
}
