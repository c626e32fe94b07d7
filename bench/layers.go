package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"autowrap"
	"autowrap/internal/audit"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/drift"
	"autowrap/internal/enum"
	"autowrap/internal/experiments"
	"autowrap/internal/extract"
	"autowrap/internal/htmlparse"
	"autowrap/internal/jobs"
	"autowrap/internal/serve"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/store/filestore"
	"autowrap/internal/store/logstore"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// The traced run. It never mixes with the untraced runs: it makes its own
// untraced and traced end-to-end passes, half the run length each, to get
// the tracing overhead and the /metrics counters, then stops the servers and
// replays a fixed sample of the workload's own inputs through each layer's
// public entry point in this process, one rung at a time.

const (
	samplePages  = 2000 // pages of the workload's inputs replayed through the ladder
	allocSample  = 100  // calls whose allocations are counted one by one
	maxSpanReqs  = 5000 // requests per client log written to the trace file
	batchCalls   = 100  // calls per timed batch of a nanosecond-scale layer
	batchRepeats = 200
)

// ladder times calls and records a span for each.
type ladder struct {
	ck  clock
	log *spanLog
}

func (l *ladder) time(req int, name, parent string, f func()) float64 {
	t0 := l.ck.now()
	f()
	t1 := l.ck.now()
	l.log.add(req, name, parent, t0, t1)
	return float64(t1 - t0)
}

// mallocs counts the heap allocations f makes. Nothing else runs in this
// process while the ladder does, so the delta is f's own.
func mallocs(f func()) (count float64, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// perCallNS times a layer too fast to time call by call: the median over
// batches of the batch time divided by the calls in it.
func perCallNS(f func()) float64 {
	var per []float64
	for b := 0; b < batchRepeats; b++ {
		t0 := time.Now()
		for i := 0; i < batchCalls; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/batchCalls)
	}
	return median(per)
}

// sink is a ResponseWriter that keeps the response for checking.
type sink struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { return s.body.Write(b) }
func (s *sink) reset() {
	clear(s.h)
	s.code = 200
	s.body.Reset()
}

func countNodes(root *dom.Node) int {
	n := 0
	root.Walk(func(*dom.Node) bool { n++; return true })
	return n
}

// daemonServer assembles the serving stack the way cmd/wrapserved does for
// one process: monitor, dispatcher, default gate, server.
func daemonServer(st *store.Store, ring *shard.Ring, shardID int) (*serve.Server, error) {
	mon := drift.NewMonitor(drift.Policy{Window: 32})
	return serve.NewServer(serve.ServerConfig{
		Dispatcher: serve.NewDispatcher(st, serve.Options{Monitor: mon}),
		Gate:       serve.NewGate(serve.GateOptions{MaxInFlight: 64}),
		Shard:      shardID,
		Ring:       ring,
	})
}

// listen serves handler on a loopback port of this process until stop is
// called.
func listen(handler http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // always ErrServerClosed after stop
		close(done)
	}()
	return ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// book counts one replayed request of a rung and checks its answer.
func (res *result) book(rung string, r *request, status int, body []byte) {
	res.Attempted++
	if status != 200 || !r.check(body) {
		res.Failed++
		if res.FirstErr == "" {
			res.FirstErr = fmt.Sprintf("%s %s: status %d, body %.200q", rung, r.site, status, body)
		}
	}
}

// handlerRung replays the sample through an in-process handler, checking
// every response, and returns the per-request times.
func handlerRung(l *ladder, name string, h http.Handler, sample []*request, res *result) []float64 {
	out := make([]float64, len(sample))
	w := &sink{h: http.Header{}}
	for i, r := range sample {
		req, _ := http.NewRequest("POST", "/v1/extract", bytes.NewReader(r.body)) // constant, valid arguments
		w.reset()
		out[i] = l.time(i, name, "", func() { h.ServeHTTP(w, req) })
		res.book(name, r, w.code, w.body.Bytes())
	}
	return out
}

func handlerAllocs(h http.Handler, sample []*request) float64 {
	var per []float64
	w := &sink{h: http.Header{}}
	for i := 0; i < allocSample; i++ {
		r := sample[i%len(sample)]
		req, _ := http.NewRequest("POST", "/v1/extract", bytes.NewReader(r.body)) // constant, valid arguments
		w.reset()
		n, _ := mallocs(func() { h.ServeHTTP(w, req) })
		per = append(per, n)
	}
	return median(per)
}

// hopRung sends the sample over a keep-alive loopback connection to addr.
func hopRung(l *ladder, name, addr string, sample []*request, res *result) ([]float64, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	out := make([]float64, len(sample))
	for i, r := range sample {
		var status int
		var body []byte
		out[i] = l.time(i, name, "", func() { status, body, err = c.roundTrip(r.wire, requestTimeout) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.book(name, r, status, body)
	}
	return out, nil
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// ladderSample is the fixed sample of the workload's own extract requests the
// ladder replays: samplePages pages' worth, in seeded order.
func ladderSample(w *workload, in *inputs, seed int64) []*request {
	rng := rand.New(rand.NewSource(seed * 7))
	var sample []*request
	for _, i := range rng.Perm(len(in.reqs)) {
		sample = append(sample, in.reqs[i])
	}
	for len(sample)*w.mix.pagesPerReq < samplePages {
		sample = append(sample, sample...)
	}
	return sample[:samplePages/w.mix.pagesPerReq]
}

// extractLadder replays the workload's extract sample rung by rung:
// handler, Dispatcher.Extract, Runtime.ExtractOne (or Run for a batch),
// Tree.Parse and ApplyPage. It returns the sum of self times on the path a
// request blocks on, in microseconds.
func extractLadder(l *ladder, w *workload, in *inputs, st *store.Store, sample []*request, res *result) (float64, error) {
	srv, err := daemonServer(st, nil, 0)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	handler := srv.Handler()
	disp := srv.Dispatcher()
	rules := map[string]wrapper.Portable{}
	runtimes := map[string]*extract.Runtime{}
	kinds := map[string]string{}
	for _, s := range in.sites {
		e, _ := st.Active(s.name)
		p, err := e.Compile()
		if err != nil {
			return 0, err
		}
		rules[s.name], runtimes[s.name], kinds[s.name] = p, extract.New(p, extract.Options{}), s.kind
	}
	ctx := context.Background()
	pagesOf := func(r *request) []extract.Page {
		out := make([]extract.Page, len(r.pages))
		for i, p := range r.pages {
			out[i] = extract.Page{ID: fmt.Sprintf("page-%d", i), HTML: p.html}
		}
		return out
	}

	// One warm lap so pools and lazily built runtimes are in steady state.
	handlerRung(&ladder{ck: l.ck, log: &spanLog{}}, "warm", handler, sample[:min(len(sample), 100)], &result{})

	hand := handlerRung(l, "serve.handler", handler, sample, res)
	var dispT, oneT, parseT, applyT, unpooledT, runT, nodes, xpathT, lrT []float64
	var speedups []float64
	for i, r := range sample {
		pages := pagesOf(r)
		dispT = append(dispT, l.time(i, "serve.dispatch", "serve.handler", func() {
			_, err = disp.Extract(ctx, r.site, pages)
		}))
		if err != nil {
			return 0, err
		}
		rt, rule := runtimes[r.site], rules[r.site]
		if len(pages) > 1 {
			var batch *extract.Batch
			runT = append(runT, l.time(i, "extract.run", "serve.dispatch", func() { batch, err = rt.Run(ctx, pages) }))
			if err != nil {
				return 0, err
			}
			speedups = append(speedups, batch.Stats.Speedup())
		}
		for _, pg := range pages {
			parent := "serve.dispatch"
			if len(pages) > 1 {
				parent = "extract.run"
			}
			one := l.time(i, "extract.one", parent, func() { rt.ExtractOne(pg) })
			var root *dom.Node
			t := htmlparse.AcquireTree()
			parse := l.time(i, "htmlparse.parse", "extract.one", func() { root = t.Parse(pg.HTML) })
			nodes = append(nodes, float64(countNodes(root)))
			apply := l.time(i, "wrapper.apply", "extract.one", func() { rule.ApplyPage(root) })
			t.Release()
			unpooledT = append(unpooledT, l.time(i, "htmlparse.parse_unpooled", "", func() { htmlparse.Parse(pg.HTML) }))
			oneT, parseT, applyT = append(oneT, one), append(parseT, parse), append(applyT, apply)
			if kinds[r.site] == experiments.KindLR {
				lrT = append(lrT, apply)
			} else {
				xpathT = append(xpathT, apply)
			}
		}
	}

	// Allocation counts, call by call, on the head of the same sample.
	var parseA, applyA, oneA, dispA []float64
	for i := 0; i < allocSample; i++ {
		r := sample[i%len(sample)]
		pages := pagesOf(r)
		n, _ := mallocs(func() { _, _ = disp.Extract(ctx, r.site, pages) })
		dispA = append(dispA, n)
		pg := pages[0]
		n, _ = mallocs(func() { runtimes[r.site].ExtractOne(pg) })
		oneA = append(oneA, n)
		t := htmlparse.AcquireTree()
		var root *dom.Node
		n, _ = mallocs(func() { root = t.Parse(pg.HTML) })
		parseA = append(parseA, n)
		n, _ = mallocs(func() { rules[r.site].ApplyPage(root) })
		applyA = append(applyA, n)
		t.Release()
	}

	res.set("htmlparse.parse_us", us(median(parseT)))
	res.set("htmlparse.nodes", median(nodes))
	res.set("htmlparse.allocs", median(parseA))
	res.set("htmlparse.parse_unpooled_us", us(median(unpooledT)))
	res.set("xpath.eval_us", us(median(xpathT)))
	res.set("lr.apply_us", us(median(lrT)))
	res.set("wrapper.apply_allocs", median(applyA))
	res.set("extract.one_us", us(median(oneT)))
	oneSelf := median(sub(sub(oneT, parseT), applyT))
	res.set("extract.one_self_us", us(oneSelf))
	res.set("extract.one_allocs", median(oneA))
	res.set("serve.dispatch_us", us(median(dispT)))
	res.set("serve.dispatch_allocs", median(dispA))
	res.set("serve.handler_us", us(median(hand)))
	handSelf := median(sub(hand, dispT))
	res.set("serve.handler_self_us", us(handSelf))
	res.set("serve.handler_allocs", handlerAllocs(handler, sample))
	var reqB, respB []float64
	for _, r := range sample {
		reqB = append(reqB, float64(len(r.body)))
		n := 0
		for _, part := range r.expect {
			n += len(part)
		}
		respB = append(respB, float64(n+len(r.pages))) // one elapsed_us digit at least per page
	}
	res.set("serve.req_bytes", median(reqB))
	res.set("serve.resp_bytes", median(respB))

	// What a request blocks on below the dispatcher: the one page, or the
	// pool's run over the batch.
	var dispSelf, below float64
	if w.mix.pagesPerReq > 1 {
		res.set("extract.run16_us", us(median(runT)))
		res.set("extract.pool_speedup", median(speedups))
		dispSelf = median(sub(dispT, runT))
		below = median(runT)
	} else {
		dispSelf = median(sub(dispT, oneT))
		below = oneSelf + median(parseT) + median(applyT)
	}
	res.set("serve.dispatch_self_us", us(dispSelf))

	// The HTTP hop: the same handler behind a loopback listener of this
	// process, reached over one keep-alive connection.
	addr, stop, err := listen(handler)
	if err != nil {
		return 0, err
	}
	hop, err := hopRung(l, "serve.http", addr, sample, res)
	stop()
	if err != nil {
		return 0, err
	}
	httpHop := median(hop) - median(hand)
	res.set("serve.http_hop_us", us(httpHop))
	path := httpHop + handSelf + dispSelf + below

	if w.fleet {
		hopNS, err := fleetLadder(l, in, st, sample, median(hand), res)
		if err != nil {
			return 0, err
		}
		path += hopNS
	}
	return us(path), nil
}

// fleetLadder measures what the fleet adds to a request: the router in front
// of in-process shards (serve.router_self_us) and the forwarding hop to
// shard servers behind loopback listeners (serve.forward_hop_us). It returns
// their sum in nanoseconds.
func fleetLadder(l *ladder, in *inputs, st *store.Store, sample []*request, handNS float64, res *result) (float64, error) {
	ring := shard.NewRing(2, shard.DefaultVNodes)
	data, err := st.Encode()
	if err != nil {
		return 0, err
	}
	partition := func(k int) (*store.Store, error) {
		return store.DecodeFiltered(data, "ladder", func(site string) bool { return ring.Owner(site) == k })
	}
	local, err := serve.NewShardRouter(ring, func(k int) (*serve.Server, error) {
		part, err := partition(k)
		if err != nil {
			return nil, err
		}
		return daemonServer(part, nil, k)
	})
	if err != nil {
		return 0, err
	}
	warm := &ladder{ck: l.ck, log: &spanLog{}}
	handlerRung(warm, "warm", local.Handler(), sample[:min(len(sample), 100)], &result{})
	routed := handlerRung(l, "serve.router", local.Handler(), sample, res)
	routerSelf := median(routed) - handNS
	res.set("serve.router_self_us", us(routerSelf))

	var peers []string
	for k := 0; k < 2; k++ {
		part, err := partition(k)
		if err != nil {
			return 0, err
		}
		srv, err := daemonServer(part, ring, k)
		if err != nil {
			return 0, err
		}
		addr, stop, err := listen(srv.Handler())
		if err != nil {
			return 0, err
		}
		defer stop()
		peers = append(peers, addr)
	}
	front, err := serve.NewForwardRouter(ring, peers, serve.ForwardOptions{})
	if err != nil {
		return 0, err
	}
	handlerRung(warm, "warm", front.Handler(), sample[:min(len(sample), 100)], &result{})
	forwarded := handlerRung(l, "serve.forward", front.Handler(), sample, res)
	hop := median(forwarded) - median(routed)
	res.set("serve.forward_hop_us", us(hop))
	res.set("serve.forward_allocs", handlerAllocs(front.Handler(), sample)-handlerAllocs(local.Handler(), sample))
	owner := 0
	res.set("shard.owner_ns", perCallNS(func() { owner += ring.Owner(sample[owner%len(sample)].site) }))
	return routerSelf + hop, nil
}

// trainSplit is the repairer's own split of fresh pages: every fourth is
// held out.
func trainSplit(pages []string) []string {
	var train []string
	for i, p := range pages {
		if (i+1)%4 != 0 {
			train = append(train, p)
		}
	}
	return train
}

// learnLadder replays the heal workload's learning work rung by rung on the
// churn sites' drifted pages, and times the writes a heal makes. It returns
// the sum of the times a heal blocks on inside the server, in milliseconds.
func learnLadder(l *ladder, in *inputs, dir string, res *result) (float64, error) {
	var parseT, annT, buildT, topT, botT, calls, wrappers, scoreT, learnT, learnSelf, learnA, learnMB, compileT, repairT, putT []float64
	var lastEntry store.Entry
	for i, c := range in.churn {
		train := trainSplit(c.tmpl[0].repair)
		var cp *corpus.Corpus
		parseT = append(parseT, l.time(i, "corpus.parse", "drift.repair", func() { cp = corpus.ParseHTML(train) }))
		var labels = cp.EmptySet()
		annT = append(annT, l.time(i, "annotate.dict", "core.learn", func() { labels = in.annot.Annotate(cp) }))
		var ind *wrapper.FeatureSpace
		buildT = append(buildT, l.time(i, "xpinduct.build", "core.learn", func() { ind = xpinduct.New(cp, xpinduct.Options{}) }))
		var top *enum.Result
		var err error
		topNS := l.time(i, "enum.topdown", "core.learn", func() { top, err = enum.TopDown(ind, labels, enum.Options{}) })
		if err != nil {
			return 0, err
		}
		topT, calls, wrappers = append(topT, topNS), append(calls, float64(top.Calls)), append(wrappers, float64(len(top.Items)))
		if i < 2 { // bottom-up is the slow enumerator; two sites are enough to put it on the ledger
			botT = append(botT, l.time(i, "enum.bottomup", "", func() {
				_, err = enum.BottomUp(xpinduct.New(cp, xpinduct.Options{}), labels, enum.Options{})
			}))
			if err != nil {
				return 0, err
			}
		}
		cfg := autowrap.NewLearnConfig(autowrap.GenericModels(cp), autowrap.Options{})
		scoreNS := 0.0
		for _, it := range top.Items {
			scoreNS += l.time(i, "rank.score", "core.learn", func() { cfg.Scorer.Score(cp, labels, it.Wrapper.Extract(), cfg.Variant) })
		}
		scoreT = append(scoreT, scoreNS/float64(max(len(top.Items), 1)))
		var learned *core.Result
		fresh := xpinduct.New(cp, xpinduct.Options{})
		var learnNS float64
		n, b := mallocs(func() {
			learnNS = l.time(i, "core.learn", "drift.repair", func() { learned, err = core.Learn(fresh, labels, cfg) })
		})
		if err != nil || learned.Best == nil {
			return 0, fmt.Errorf("learn ladder %s: no wrapper: %v", c.name, err)
		}
		learnT, learnA, learnMB = append(learnT, learnNS), append(learnA, n), append(learnMB, b/(1<<20))
		learnSelf = append(learnSelf, learnNS-topNS-scoreNS)
		var rule wrapper.Portable
		compileT = append(compileT, l.time(i, "store.compile", "drift.repair", func() { rule, err = store.Compile(learned.Best.Wrapper) }))
		if err != nil {
			return 0, err
		}

		// The repairer end to end, against a store that serves the rule
		// learned on the train rendering.
		st, _, err := learnSites(in.annot, []*site{&c.site}, 1)
		if err != nil {
			return 0, err
		}
		rep := newRepairer(st, in.annot)
		var report *drift.Report
		repairT = append(repairT, l.time(i, "drift.repair", "", func() { report, err = rep.Repair(context.Background(), c.name, c.tmpl[0].repair) }))
		if err != nil || !report.Promoted {
			return 0, fmt.Errorf("learn ladder %s: repair did not promote: %v", c.name, err)
		}
		putT = append(putT, l.time(i, "store.put_promote", "", func() {
			var e store.Entry
			if e, err = st.PutCandidate(c.name, rule, store.Meta{}); err == nil {
				_, err = st.Promote(c.name, e.Version)
			}
		}))
		if err != nil {
			return 0, err
		}
		lastEntry = report.Candidate
	}
	res.set("corpus.parse_ms", ms(median(parseT)))
	res.set("annotate.dict_ms", ms(median(annT)))
	res.set("xpinduct.build_ms", ms(median(buildT)))
	res.set("enum.topdown_ms", ms(median(topT)))
	res.set("enum.bottomup_ms", ms(median(botT)))
	res.set("enum.induce_calls", median(calls))
	res.set("enum.wrappers", median(wrappers))
	res.set("rank.score_us_per_candidate", us(median(scoreT)))
	res.set("core.learn_ms", ms(median(learnT)))
	res.set("core.learn_self_ms", ms(median(learnSelf)))
	res.set("core.learn_allocs", median(learnA))
	res.set("core.learn_mb", median(learnMB))
	res.set("store.compile_us", us(median(compileT)))
	res.set("store.put_promote_us", us(median(putT)))
	res.set("drift.repair_ms", ms(median(repairT)))

	// LR learning of a mid-sized site: on no workload's path yet, recorded
	// so the gap to XPATH learning is on the ledger.
	lrSite, err := render(in.sites[0].cfg, trainPages, shape{40, 60}, 0)
	if err != nil {
		return 0, err
	}
	lrInd, err := experiments.NewInductor(experiments.KindLR, lrSite.Corpus)
	if err != nil {
		return 0, err
	}
	lrLabels := in.annot.Annotate(lrSite.Corpus)
	lrCfg := autowrap.NewLearnConfig(autowrap.GenericModels(lrSite.Corpus), autowrap.Options{})
	res.set("lr.learn_ms", ms(l.time(0, "lr.learn", "", func() { _, err = core.Learn(lrInd, lrLabels, lrCfg) })))
	if err != nil {
		return 0, err
	}

	// The writes one heal makes, on this machine's disk.
	appendPair := func(be store.Backend, e store.Entry) error {
		if err := be.AppendEntry(0, e, false); err != nil {
			return err
		}
		return be.AppendPromotion(0, e.Site, store.OpPromote, e.Version)
	}
	timeAppends := func(name string, n int, be store.Backend) (float64, error) {
		var t []float64
		var err error
		for i := 0; i < n && err == nil; i++ {
			e := lastEntry
			e.Version = i + 1
			t = append(t, l.time(i, name, "", func() { err = appendPair(be, e) }))
		}
		return median(t), err
	}
	syncLog, err := logstore.Open(filepath.Join(dir, "ladder-sync.log"), logstore.Options{})
	if err != nil {
		return 0, err
	}
	syncNS, err := timeAppends("logstore.append_sync", 50, syncLog)
	syncLog.Close()
	if err != nil {
		return 0, err
	}
	groupLog, err := logstore.Open(filepath.Join(dir, "ladder-group.log"), logstore.Options{SyncInterval: 10 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	groupNS, err := timeAppends("logstore.append_group", 200, groupLog)
	groupLog.Close()
	if err != nil {
		return 0, err
	}
	full, _, err := in.learnStore(1)
	if err != nil {
		return 0, err
	}
	fileBE, err := filestore.Open(filepath.Join(dir, "ladder-file.json"))
	if err != nil {
		return 0, err
	}
	fileBE.Attach(0, full)
	fileNS, err := timeAppends("filestore.persist", 20, fileBE)
	fileBE.Close()
	if err != nil {
		return 0, err
	}
	led, err := audit.Open(filepath.Join(dir, "ladder-audit.jsonl"), audit.Options{})
	if err != nil {
		return 0, err
	}
	var auditT []float64
	for i := 0; i < 50 && err == nil; i++ {
		auditT = append(auditT, l.time(i, "audit.append", "", func() {
			err = led.Append(0, audit.EventPromote, lastEntry.Site, i+1, "validated: promoted")
		}))
	}
	led.Close()
	if err != nil {
		return 0, err
	}
	jm := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1024, History: 1024})
	var submitT []float64
	for i := 0; i < 200 && err == nil; i++ {
		submitT = append(submitT, l.time(i, "jobs.submit", "", func() {
			_, err = jm.Submit(jobs.KindRepair, lastEntry.Site, func(context.Context, func(string)) (any, error) { return nil, nil })
		}))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	derr := jm.Drain(ctx)
	cancel()
	if err != nil || derr != nil {
		return 0, fmt.Errorf("jobs rung: %v %v", err, derr)
	}
	res.set("logstore.append_sync_us", us(syncNS))
	res.set("logstore.append_group_us", us(groupNS))
	res.set("filestore.persist_us", us(fileNS))
	res.set("audit.append_us", us(median(auditT)))
	res.set("jobs.submit_us", us(median(submitT)))

	// A heal blocks on: the submit, the repair (parse, learn, compile,
	// validate, stage), the durable appends, two audit records (candidate
	// and promote), and on average half a poll interval.
	return ms(median(submitT)) + ms(median(repairT)) + ms(syncNS) + 2*ms(median(auditT)) + float64(pollEvery)/2e6, nil
}

// tracedRun fills res with every per-layer metric of the workload; layers
// the workload does not touch report 0.
func (h *harness) tracedRun(w *workload, in *inputs, f *fleet, heal *healer, seed int64, seconds int, res *result, outDir string) error {
	// First the sample over one connection to the real deployment with
	// nothing else running: what a request costs across real process
	// boundaries before any contention.
	l := &ladder{ck: clock{base: time.Now()}, log: &spanLog{}}
	sample := ladderSample(w, in, seed)
	hopRung(&ladder{ck: l.ck, log: &spanLog{}}, "warm", f.front, sample[:min(len(sample), 100)], &result{})
	unloaded, err := hopRung(l, "client.unloaded", f.front, sample, res)
	if err != nil {
		return err
	}
	half := max(seconds/2, 1)
	plain, err := runPass(w, in, f, heal, half, seed, false)
	if err != nil {
		return err
	}
	before, err := scrapeAll(f)
	if err != nil {
		return err
	}
	traced, err := runPass(w, in, f, heal, half, seed+1, true)
	if err != nil {
		return err
	}
	after, err := scrapeAll(f)
	if err != nil {
		return err
	}
	peakRSS, err := f.memMB("VmHWM")
	if err != nil {
		return err
	}
	// The servers have done their part; the ladder wants the cores.
	f.stop()

	pm, tm := plain.merge(w.heal), traced.merge(w.heal)
	res.Attempted, res.Failed = res.Attempted+pm.attempted+tm.attempted, res.Failed+pm.failed+tm.failed
	for _, m := range []*merged{pm, tm} {
		if res.FirstErr == "" && m.firstErr != nil {
			res.FirstErr = m.firstErr.Error()
		}
	}
	for _, n := range perLayerOrder {
		res.set(n, 0)
	}
	res.set("server_rss_peak_mb", peakRSS)
	res.set("record_f1", f1(pm.served+tm.served, pm.gold+tm.gold, pm.hit+tm.hit))
	res.set("loadgen.cpu_share", pm.loadgenShare)
	if len(pm.lateMS) > 0 {
		late, _ := quantile(pm.lateMS, 0.99)
		res.set("loadgen.late_p99_ms", late)
	}
	if w.heal {
		res.set("loadgen.achieved_rate_share", pm.achievedRate)
		heals := append(append([]healRecord(nil), pm.heals...), tm.heals...)
		p50, _ := quantile(healTimes(heals), 0.5)
		p90, _ := quantile(healTimes(heals), 0.9)
		res.set("heal_p50_ms", p50)
		res.set("heal_p90_ms", p90)
		res.set("sites_healed_per_s", float64(len(heals))/(plain.seconds+traced.seconds))
		res.Info["heal_n"] = float64(len(heals))
	}
	if pm.throughput > 0 {
		res.set("trace.overhead_share", 1-tm.throughput/pm.throughput)
	}
	// What the generator itself spends per request, from its spans: writing,
	// waiting for the answer, checking it, and the rest of its loop.
	var sendNS, waitNS, verifyNS, selfNS []float64
	for _, r := range traced.recs {
		sendNS = append(sendNS, r.spans.durations("client.send")...)
		waitNS = append(waitNS, r.spans.durations("client.wait")...)
		verifyNS = append(verifyNS, r.spans.durations("client.verify")...)
		selfNS = append(selfNS, r.spans.selfTimes("client.request")...)
	}
	res.set("client.send_us", us(median(sendNS)))
	res.set("client.wait_us", us(median(waitNS)))
	res.set("client.verify_us", us(median(verifyNS)))
	res.set("client.self_us", us(median(selfNS)))
	res.Info["untraced_pages_per_s"], res.Info["traced_pages_per_s"] = pm.throughput, tm.throughput
	res.Info["untraced_latency_p50_ms"], res.Info["traced_latency_p50_ms"] = pm.p50, tm.p50

	// Counters the servers kept over the traced pass.
	var rejected, timedOut, jobsDone, jobsRunMS float64
	var siteP50 []float64
	for i := range after {
		rejected += float64(after[i].Gate.Rejected - before[i].Gate.Rejected)
		timedOut += float64(after[i].Gate.TimedOut - before[i].Gate.TimedOut)
		if a, b := after[i].Jobs, before[i].Jobs; a != nil && b != nil {
			ka, kb := a.Kinds[string(jobs.KindRepair)], b.Kinds[string(jobs.KindRepair)]
			jobsDone += float64(ka.Done - kb.Done)
			jobsRunMS += float64(ka.TotalRunMS - kb.TotalRunMS)
		}
		for _, s := range after[i].Sites {
			if s.Metrics != nil && s.Metrics.Requests > 0 && s.Site[0] == 's' { // stable sites: "site-NNN"
				siteP50 = append(siteP50, s.Metrics.LatencyP50Ms*1e3)
			}
		}
	}
	res.set("serve.gate_rejected", rejected)
	res.set("serve.gate_timed_out", timedOut)
	res.set("serve.server_p50_us", median(siteP50))
	if jobsDone > 0 {
		res.set("jobs.cpu_ms_per_heal", jobsRunMS/jobsDone)
	}
	res.set("fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)))

	// The ladder.
	st, stats, err := in.learnStore(h.nproc)
	if err != nil {
		return err
	}
	res.set("engine.batch_sites_per_s", stats.SitesPerSec())
	res.set("engine.pool_speedup", stats.Speedup())
	pathUS, err := extractLadder(l, w, in, st, sample, res)
	if err != nil {
		return err
	}
	gate := serve.NewGate(serve.GateOptions{MaxInFlight: 64})
	res.set("serve.gate_ns", perCallNS(func() {
		if release, err := gate.Acquire(context.Background()); err == nil {
			release()
		}
	}))
	health := drift.NewMonitor(drift.Policy{Window: 32}).Register("site", &store.Profile{Pages: 12, MeanRecords: 6})
	page := &extract.Result{Texts: make([]string, 6)}
	res.set("drift.observe_ns", perCallNS(func() { health.Observe(page) }))
	res.set("client.unloaded_us", us(median(unloaded)))
	res.set("model.unloaded_gap_share", 1-pathUS/us(median(unloaded)))
	if pm.p50 > 0 {
		res.set("model.gap_share", 1-pathUS/(pm.p50*1e3))
	}
	res.Info["model.path_us"] = pathUS
	if w.heal {
		healPathMS, err := learnLadder(l, in, h.tmp, res)
		if err != nil {
			return err
		}
		// Plus the verified extract of one large page at the end of a heal.
		res.Info["model.heal_path_ms"] = healPathMS
		if p50 := res.Metrics["heal_p50_ms"].Value; p50 > 0 {
			res.set("model.heal_gap_share", 1-healPathMS/p50)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Valid = validRun(pm.loadgenShare, pm.achievedRate)
	return writeSpans(filepath.Join(outDir, "trace."+w.name+".jsonl"), l.log, maxSpanReqs,
		traced.recs[0].spans, traced.recs[1].spans)
}

func scrapeAll(f *fleet) ([]*serve.MetricsResponse, error) {
	var out []*serve.MetricsResponse
	for _, p := range f.procs {
		if p.name == "front" { // a front holds no gate, jobs or site ledgers of its own
			continue
		}
		m, err := scrape(p.addr)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
