package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"autowrap"
	"autowrap/internal/annotate"
	"autowrap/internal/corpus"
	"autowrap/internal/drift"
	"autowrap/internal/engine"
	"autowrap/internal/experiments"
	"autowrap/internal/gen"
	"autowrap/internal/htmlparse"
	"autowrap/internal/serve"
	"autowrap/internal/store"
	"autowrap/internal/wrapper"
)

// Page shapes. A small page is the generator's default dealer page; a large
// one is a long result list, where parsing and rule evaluation dominate.
type shape struct{ minRec, maxRec int }

var (
	small = shape{3, 9}     // ~1.3 KB
	large = shape{150, 200} // ~22 KB
)

const (
	trainPages   = 12 // the cheap rendering wrappers are learned on
	repairPages  = 12 // pages posted with one /v1/repair
	verifyPages  = 4  // pages of a churn template kept back for verified extracts
	churnSites   = 8
	poolSize     = 4000
	dictFraction = 0.24 // the paper's dictionary recall
)

// page is one served page with what the generator says it holds (gold) and
// what the serving wrapper version extracts from it in this process (ref).
type page struct {
	html string
	gold []string
	ref  []string
}

// site is one stable site: learned once on its train rendering, served from
// its serve rendering.
type site struct {
	name  string
	kind  string // experiments.KindXPath or experiments.KindLR
	cfg   gen.DealerConfig
	train []string
	pages []page
}

// template is one of a churn site's two renderings at the large shape: the
// pages a repair is fed, and pages kept back to verify the promoted version.
type template struct {
	repair []string
	verify []page
}

// churn is a site that keeps changing template. It starts out learned on the
// train rendering of template 1 (Drift 0); heal k moves it to tmpl[k%2], so
// tmpl[0] is the drifted template (Drift 2) and tmpl[1] the original.
type churn struct {
	site
	tmpl [2]template
}

type inputs struct {
	dict  []string
	annot annotate.Annotator
	sites []*site
	churn []*churn
	reqs  []*request // extract traffic over the stable sites
}

// siteMix says how many sites of each wrapper language a workload serves and
// how its extract requests are shaped.
type siteMix struct {
	xpath, lr   int
	shape       shape
	pagesPerReq int
	perSite     int // serve pages rendered per site
}

func render(cfg gen.DealerConfig, pages int, sh shape, driftSteps int) (*gen.Site, error) {
	cfg.NumPages, cfg.MinRecords, cfg.MaxRecords, cfg.Drift = pages, sh.minRec, sh.maxRec, driftSteps
	return gen.DealerSite(cfg)
}

func htmlOf(s *gen.Site) []string {
	out := make([]string, len(s.Corpus.Pages))
	for i, p := range s.Corpus.Pages {
		out[i] = p.HTML
	}
	return out
}

// goldNames lists each page's gold business names in document order.
func goldNames(s *gen.Site) [][]string {
	out := make([][]string, len(s.Corpus.Pages))
	s.Gold["name"].ForEach(func(ord int) {
		p := s.Corpus.PageOf(ord)
		out[p] = append(out[p], s.Corpus.TextContent(ord))
	})
	return out
}

// applyRef is the in-process reference every response is compared with: the
// public parser and the compiled rule, nothing of the serving stack.
func applyRef(p wrapper.Portable, html string) []string {
	nodes := p.ApplyPage(htmlparse.Parse(html))
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = strings.TrimSpace(n.Data)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// learnSpec is the daemon's own learning recipe (cmd/wrapserved makeRepairer).
func learnSpec(name, kind string, c *corpus.Corpus, annot annotate.Annotator) engine.SiteSpec {
	return engine.SiteSpec{
		Name: name, Corpus: c, Annotator: annot,
		NewInductor: func(c *corpus.Corpus) (wrapper.Inductor, error) {
			return experiments.NewInductor(kind, c)
		},
		Config: autowrap.NewLearnConfig(autowrap.GenericModels(c), autowrap.Options{}),
	}
}

func newRepairer(st *store.Store, annot annotate.Annotator) *drift.Repairer {
	return &drift.Repairer{
		Store: st,
		Spec: func(name string, c *corpus.Corpus) (engine.SiteSpec, error) {
			return learnSpec(name, experiments.KindXPath, c, annot), nil
		},
	}
}

// learnStore learns every stable and churn site on its train rendering
// through the batch engine: the part of set-up that is the learner's.
func (in *inputs) learnStore(workers int) (*store.Store, engine.Stats, error) {
	all := append([]*site(nil), in.sites...)
	for _, c := range in.churn {
		all = append(all, &c.site)
	}
	return learnSites(in.annot, all, workers)
}

// learnSites learns the sites' train renderings into a fresh store.
func learnSites(annot annotate.Annotator, sites []*site, workers int) (*store.Store, engine.Stats, error) {
	specs := make([]engine.SiteSpec, len(sites))
	for i, s := range sites {
		specs[i] = learnSpec(s.name, s.kind, corpus.ParseHTML(s.train), annot)
	}
	batch, err := engine.LearnBatch(context.Background(), specs, engine.Options{Workers: workers})
	if err != nil {
		return nil, engine.Stats{}, err
	}
	st := store.New()
	if n, err := st.PutBatch(batch); err != nil || n != len(specs) {
		return nil, engine.Stats{}, fmt.Errorf("learned %d of %d sites: %v", n, len(specs), err)
	}
	return st, batch.Stats, nil
}

// candidate draws one site seed. It returns a nil site when the draw has
// another layout than the slot's or learning its train pages gives no rule:
// draw again.
func candidate(rng *rand.Rand, name, kind, layout string, pool []gen.Business,
	annot annotate.Annotator) (*site, wrapper.Portable, error) {
	cfg := gen.DealerConfig{Seed: rng.Int63n(1 << 40), SiteName: name, Pool: pool}
	probe, err := render(cfg, 1, small, 0)
	if err != nil || probe.Layout != layout {
		return nil, nil, err
	}
	s, rule, err := learnSite(cfg, name, kind, annot)
	if err != nil || rule == nil {
		return nil, nil, err
	}
	return s, rule, nil
}

const maxDraws = 400

// qualifySite draws site seeds until one has the wanted layout and its
// learned rule reproduces the gold of every serve page. Rejection keeps the
// operation mix fixed across seeds (layout i%5 at slot i) and the workload
// free of operations that fail by construction.
func qualifySite(rng *rand.Rand, name, kind, layout string, pool []gen.Business,
	annot annotate.Annotator, sh shape, perSite int) (*site, error) {
	for try := 0; try < maxDraws; try++ {
		s, rule, err := candidate(rng, name, kind, layout, pool, annot)
		if err != nil {
			return nil, err
		}
		if s == nil {
			continue
		}
		srv, err := render(s.cfg, perSite, sh, 0)
		if err != nil {
			return nil, err
		}
		if pages, ok := refPages(rule, srv); ok {
			s.pages = pages
			return s, nil
		}
	}
	return nil, fmt.Errorf("no %s site with layout %s qualified in %d draws", kind, layout, maxDraws)
}

// learnSite renders the train pages and learns them alone; rule is nil when
// learning produced no wrapper.
func learnSite(cfg gen.DealerConfig, name, kind string, annot annotate.Annotator) (*site, wrapper.Portable, error) {
	tr, err := render(cfg, trainPages, small, 0)
	if err != nil {
		return nil, nil, err
	}
	s := &site{name: name, kind: kind, cfg: cfg, train: htmlOf(tr)}
	batch, err := engine.LearnBatch(context.Background(),
		[]engine.SiteSpec{learnSpec(name, kind, tr.Corpus, annot)}, engine.Options{Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	r := batch.Sites[0]
	if r.Err != nil || r.Skipped || r.Result == nil || r.Result.Best == nil {
		return s, nil, nil
	}
	rule, err := store.Compile(r.Result.Best.Wrapper)
	if err != nil {
		return nil, nil, err
	}
	return s, rule, nil
}

// refPages pairs each page of a rendering with gold and reference; ok is
// false when the rule does not reproduce gold on some page.
func refPages(rule wrapper.Portable, s *gen.Site) ([]page, bool) {
	gold := goldNames(s)
	pages := make([]page, len(s.Corpus.Pages))
	for i, p := range s.Corpus.Pages {
		pages[i] = page{html: p.HTML, gold: gold[i], ref: applyRef(rule, p.HTML)}
		if len(gold[i]) == 0 || !sameStrings(pages[i].ref, gold[i]) {
			return nil, false
		}
	}
	return pages, true
}

func extractsNothing(rule wrapper.Portable, htmls []string) bool {
	for _, h := range htmls {
		if len(rule.ApplyPage(htmlparse.Parse(h))) > 0 {
			return false
		}
	}
	return true
}

// qualifyChurn finds a site whose two templates heal into each other: the
// rule learned on one extracts nothing from the other, the in-process
// repairer promotes on the other's pages, and the promoted rule reproduces
// the gold of the pages kept back; and the same the way back, so the cycle
// can repeat for as long as a run lasts.
func qualifyChurn(rng *rand.Rand, name, layout string, pool []gen.Business,
	annot annotate.Annotator) (*churn, error) {
	for try := 0; try < maxDraws; try++ {
		s, rule, err := candidate(rng, name, experiments.KindXPath, layout, pool, annot)
		if err != nil {
			return nil, err
		}
		if s == nil {
			continue
		}
		c := &churn{site: *s}
		ok, err := c.renderTemplates(rule, annot)
		if err != nil {
			return nil, err
		}
		if ok {
			return c, nil
		}
	}
	return nil, fmt.Errorf("no churn site with layout %s qualified in %d draws", layout, maxDraws)
}

// renderTemplates renders the site's two templates and reports whether they
// heal into each other, starting from rule, the one learned on the train
// pages.
func (c *churn) renderTemplates(rule wrapper.Portable, annot annotate.Annotator) (bool, error) {
	st := store.New()
	if _, err := st.Put(c.name, rule, store.Meta{}); err != nil {
		return false, err
	}
	rep := newRepairer(st, annot)
	for k := range c.tmpl {
		r, err := render(c.cfg, repairPages+verifyPages, large, 2*(1-k))
		if err != nil {
			return false, err
		}
		c.tmpl[k].repair = htmlOf(r)[:repairPages]
		if !extractsNothing(rule, c.tmpl[k].repair) {
			return false, nil
		}
		report, err := rep.Repair(context.Background(), c.name, c.tmpl[k].repair)
		if err != nil || !report.Promoted {
			return false, nil // a site the repairer cannot heal is drawn again
		}
		if rule, err = report.Candidate.Compile(); err != nil {
			return false, err
		}
		all, ok := refPages(rule, r)
		if !ok {
			return false, nil
		}
		c.tmpl[k].verify = all[repairPages:]
	}
	// The rule now serving (template 1's) must also be blind to template 0,
	// or the third heal would not promote.
	return extractsNothing(rule, c.tmpl[0].repair), nil
}

var layouts = []string{"table", "divs", "linklist", "dl", "headings"}

// lrLayouts leaves out the link list, which is built so that no perfect LR
// wrapper exists.
var lrLayouts = []string{"table", "divs", "dl", "headings"}

// generate makes a workload's inputs from the seed alone. Each slot draws
// from its own generator, so the result does not depend on which goroutine
// fills which slot.
func generate(seed int64, mix siteMix, workers int) (*inputs, error) {
	in := &inputs{}
	pool := gen.BusinessPool(seed, poolSize, 0)
	rng := rand.New(rand.NewSource(seed + 1))
	for _, b := range pool {
		if rng.Float64() < dictFraction {
			in.dict = append(in.dict, b.Name)
		}
	}
	// The daemon names its annotator after the dictionary file; the name
	// plays no part in labelling.
	in.annot = autowrap.DictionaryAnnotator("dict.txt", in.dict)

	n := mix.xpath + mix.lr
	in.sites = make([]*site, n)
	in.churn = make([]*churn, churnSites)
	errs := make([]error, n+churnSites)
	slots := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range slots {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
				switch {
				case i < mix.xpath:
					in.sites[i], errs[i] = qualifySite(rng, fmt.Sprintf("site-%03d", i), experiments.KindXPath,
						layouts[i%len(layouts)], pool, in.annot, mix.shape, mix.perSite)
				case i < n:
					in.sites[i], errs[i] = qualifySite(rng, fmt.Sprintf("site-%03d", i), experiments.KindLR,
						lrLayouts[i%len(lrLayouts)], pool, in.annot, mix.shape, mix.perSite)
				default:
					k := i - n
					in.churn[k], errs[i] = qualifyChurn(rng, fmt.Sprintf("churn-%03d", k),
						layouts[k%len(layouts)], pool, in.annot)
				}
			}
		}()
	}
	for i := 0; i < n+churnSites; i++ {
		slots <- i
	}
	close(slots)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, s := range in.sites {
		for at := 0; at+mix.pagesPerReq <= len(s.pages); at += mix.pagesPerReq {
			r, err := newExtractRequest(s.name, 1, s.pages[at:at+mix.pagesPerReq])
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, r)
		}
	}
	return in, nil
}

// request is one pre-encoded extract request with everything needed to
// check its answer without decoding it.
type request struct {
	site  string
	wire  []byte // the complete HTTP request
	body  []byte // its JSON body, for the in-process rungs of the traced run
	pages []page
	// expect is the exact response, cut at each elapsed_us value (the one
	// thing in it the server measures).
	expect [][]byte
	// Record counts for record_f1: served (= reference), gold, and both.
	served, gold, hit int
}

var elapsedZero = []byte(`"elapsed_us":0`)

func newExtractRequest(siteName string, version int, pages []page) (*request, error) {
	req := serve.ExtractRequest{Site: siteName}
	want := serve.ExtractResponse{Site: siteName, Version: version}
	r := &request{site: siteName, pages: pages}
	for i, p := range pages {
		if len(pages) == 1 {
			req.Page = &serve.PageInput{HTML: p.html}
		} else {
			req.Pages = append(req.Pages, serve.PageInput{HTML: p.html})
		}
		want.Results = append(want.Results, serve.PageOutput{ID: fmt.Sprintf("page-%d", i), Records: p.ref})
		r.served += len(p.ref)
		r.gold += len(p.gold)
		r.hit += overlap(p.ref, p.gold)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r.body = body
	r.wire = encodeRequest("POST", "/v1/extract", body)
	// The daemon's codec is pinned byte-identical to encoding/json with a
	// trailing newline, so the expected bytes come from the public wire
	// types. A mismatch falls back to a decoded comparison (see check).
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		return nil, err
	}
	parts := bytes.Split(buf.Bytes(), elapsedZero)
	for i := range parts[:len(parts)-1] {
		parts[i] = append(parts[i], elapsedZero[:len(elapsedZero)-1]...)
	}
	r.expect = parts
	return r, nil
}

// overlap counts the records two lists share, as multisets.
func overlap(a, b []string) int {
	seen := make(map[string]int, len(b))
	for _, s := range b {
		seen[s]++
	}
	n := 0
	for _, s := range a {
		if seen[s] > 0 {
			seen[s]--
			n++
		}
	}
	return n
}

// check reports whether a 200 response is the expected one: the exact bytes
// with any digits where an elapsed_us stands, or else the same content
// after decoding.
func (r *request) check(body []byte) bool {
	at := 0
	for i, part := range r.expect {
		if !bytes.HasPrefix(body[at:], part) {
			return r.checkDecoded(body, 1)
		}
		at += len(part)
		if i < len(r.expect)-1 {
			d := at
			for at < len(body) && body[at] >= '0' && body[at] <= '9' {
				at++
			}
			if at == d {
				return r.checkDecoded(body, 1)
			}
		}
	}
	return at == len(body) || r.checkDecoded(body, 1)
}

// checkDecoded compares a decoded response with the reference: the serving
// version, one result per page, no page error, the reference's records.
func (r *request) checkDecoded(body []byte, version int) bool {
	var resp serve.ExtractResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if resp.Site != r.site || resp.Version != version || resp.Error != "" || len(resp.Results) != len(r.pages) {
		return false
	}
	for i, out := range resp.Results {
		if out.Error != "" || !sameStrings(out.Records, r.pages[i].ref) {
			return false
		}
	}
	return true
}
