package store_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autowrap/internal/annotate"
	"autowrap/internal/bitset"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/engine"
	"autowrap/internal/htmlparse"
	"autowrap/internal/lr"
	"autowrap/internal/rank"
	"autowrap/internal/stats"
	"autowrap/internal/store"
	"autowrap/internal/testutil/corpustree"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// testPages is a small two-page site with a clean record list.
func testPages() []string {
	return []string{
		`<html><body><h1>Page one</h1><div class="list"><table>` +
			`<tr><td class="v">Alpha</td><td>12</td></tr>` +
			`<tr><td class="v">Beta</td><td>34</td></tr>` +
			`</table></div></body></html>`,
		`<html><body><h1>Page two</h1><div class="list"><table>` +
			`<tr><td class="v">Gamma</td><td>56</td></tr>` +
			`<tr><td class="v">Delta</td><td>78</td></tr>` +
			`</table></div></body></html>`,
	}
}

func testCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	return corpus.ParseHTML(testPages())
}

// valueLabels returns the ordinals of the class="v" cells.
func valueLabels(t *testing.T, c *corpus.Corpus) *bitset.Set {
	t.Helper()
	s := c.MatchingText(func(txt string) bool {
		switch txt {
		case "Alpha", "Beta", "Gamma", "Delta":
			return true
		}
		return false
	})
	if s.Count() != 4 {
		t.Fatalf("expected 4 labels, got %d", s.Count())
	}
	return s
}

func induceXPath(t *testing.T, c *corpus.Corpus) wrapper.Wrapper {
	t.Helper()
	w, err := xpinduct.New(c, xpinduct.Options{}).Induce(valueLabels(t, c))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func induceLR(t *testing.T, c *corpus.Corpus) wrapper.Wrapper {
	t.Helper()
	w, err := lr.New(c, 0).Induce(valueLabels(t, c))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// applyOrdinals maps ApplyPage output on corpus page roots back to corpus
// ordinals for comparison with the native Extract bitset.
func applyOrdinals(t *testing.T, c *corpus.Corpus, p wrapper.Portable) []int {
	t.Helper()
	var ords []int
	trees := corpustree.Of(c)
	for _, root := range trees.Roots {
		for _, n := range p.ApplyPage(root) {
			ord := trees.OrdinalOf(n)
			if ord < 0 {
				t.Fatalf("ApplyPage returned non-extractable node %q", n.Data)
			}
			ords = append(ords, ord)
		}
	}
	return ords
}

func assertMatchesNative(t *testing.T, c *corpus.Corpus, w wrapper.Wrapper, p wrapper.Portable) {
	t.Helper()
	got := applyOrdinals(t, c, p)
	want := w.Extract().Indices()
	if len(got) != len(want) {
		t.Fatalf("portable extracted %v, native %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("portable extracted %v, native %v", got, want)
		}
	}
	if len(got) == 0 {
		t.Fatal("degenerate test: native wrapper extracted nothing")
	}
}

func TestCompileMatchesNativeExtraction(t *testing.T) {
	c := testCorpus(t)
	for _, tc := range []struct {
		name string
		w    wrapper.Wrapper
	}{
		{"xpath", induceXPath(t, c)},
		{"lr", induceLR(t, c)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := store.Compile(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if p.Lang() != tc.name {
				t.Fatalf("Lang() = %q, want %q", p.Lang(), tc.name)
			}
			assertMatchesNative(t, c, tc.w, p)
		})
	}
}

func TestCompileRejectsUnknownWrappers(t *testing.T) {
	if _, err := store.Compile(nil); err == nil {
		t.Fatal("expected error compiling nil wrapper")
	}
}

func TestMarshalWrapperRoundTrip(t *testing.T) {
	c := testCorpus(t)
	for _, tc := range []struct {
		name string
		w    wrapper.Wrapper
	}{
		{"xpath", induceXPath(t, c)},
		{"lr", induceLR(t, c)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := store.Compile(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := store.MarshalWrapper(p)
			if err != nil {
				t.Fatal(err)
			}
			// Wire form is stable JSON with the format version stamped.
			var probe map[string]any
			if err := json.Unmarshal(blob, &probe); err != nil {
				t.Fatalf("wire form is not JSON: %v", err)
			}
			if probe["format"] != float64(store.FormatVersion) {
				t.Fatalf("wire form missing format version: %s", blob)
			}
			p2, err := store.UnmarshalWrapper(blob)
			if err != nil {
				t.Fatal(err)
			}
			if p2.Rule() != p.Rule() {
				t.Fatalf("rule changed over the wire: %q -> %q", p.Rule(), p2.Rule())
			}
			assertMatchesNative(t, c, tc.w, p2)
			// Marshal again: byte-identical (stable wire form).
			blob2, err := store.MarshalWrapper(p2)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(blob2) {
				t.Fatalf("wire form not stable:\n%s\n%s", blob, blob2)
			}
		})
	}
}

func TestUnmarshalWrapperRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ name, blob string }{
		{"not json", `{{`},
		{"bad format", `{"format":99,"lang":"xpath","rule":"//td/text()"}`},
		{"no format", `{"lang":"xpath","rule":"//td/text()"}`},
		{"unknown lang", `{"format":1,"lang":"regex","rule":".*"}`},
		{"bad xpath", `{"format":1,"lang":"xpath","rule":"//td[@class='x/text()"}`},
		{"element xpath", `{"format":1,"lang":"xpath","rule":"//td"}`},
		{"lr missing payload", `{"format":1,"lang":"lr","rule":"LR(\"a\", \"b\")"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := store.UnmarshalWrapper([]byte(tc.blob)); err == nil {
				t.Fatalf("expected error for %s", tc.blob)
			}
		})
	}
}

func TestStoreVersioning(t *testing.T) {
	c := testCorpus(t)
	s := store.New()
	px, err := store.Compile(induceXPath(t, c))
	if err != nil {
		t.Fatal(err)
	}
	plr, err := store.Compile(induceLR(t, c))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Put("site-a", px, store.Meta{Score: -1.5, Labels: 4})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Put("site-a", plr, store.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("site-b", px, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e2.Version != 2 {
		t.Fatalf("versions = %d, %d; want 1, 2", e1.Version, e2.Version)
	}
	latest, ok := s.Latest("site-a")
	if !ok || latest.Version != 2 || latest.Lang != "lr" {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
	v1, ok := s.Version("site-a", 1)
	if !ok || v1.Lang != "xpath" || v1.Score != -1.5 || v1.Labels != 4 {
		t.Fatalf("Version(1) = %+v, %v", v1, ok)
	}
	if _, ok := s.Version("site-a", 3); ok {
		t.Fatal("Version(3) should not exist")
	}
	if _, ok := s.Latest("nope"); ok {
		t.Fatal("Latest on unknown site should fail")
	}
	if got := s.Sites(); len(got) != 2 || got[0] != "site-a" || got[1] != "site-b" {
		t.Fatalf("Sites = %v", got)
	}
	if hist := s.History("site-a"); len(hist) != 2 {
		t.Fatalf("History = %v", hist)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, err := s.Put("", px, store.Meta{}); err == nil {
		t.Fatal("expected error for empty site name")
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	c := testCorpus(t)
	s := store.New()
	px, _ := store.Compile(induceXPath(t, c))
	plr, _ := store.Compile(induceLR(t, c))
	if _, err := s.Put("site-a", px, store.Meta{Score: -2, Labels: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("site-a", plr, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("site-b", plr, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wrappers.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// Saving again over an existing file must leave a valid registry
	// (atomic replace, not truncate-then-write).
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Sites(), s.Sites(); len(got) != len(want) {
		t.Fatalf("Sites after load = %v, want %v", got, want)
	}
	latest, ok := s2.Latest("site-a")
	if !ok || latest.Version != 2 {
		t.Fatalf("Latest after load = %+v, %v", latest, ok)
	}
	v1, _ := s2.Version("site-a", 1)
	if v1.Score != -2 || v1.Labels != 4 {
		t.Fatalf("meta lost over save/load: %+v", v1)
	}
	p, err := v1.Compile()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesNative(t, c, induceXPath(t, c), p)
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".wrapstore-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestStoreLoadRejectsCorruptRegistry(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ name, content string }{
		{"not json", `{{{`},
		{"bad format", `{"format":9,"sites":{}}`},
		{"bad rule", `{"format":1,"sites":{"s":[{"site":"s","version":1,"lang":"xpath","rule":"///["}]}}`},
		{"bad version chain", `{"format":1,"sites":{"s":[{"site":"s","version":7,"lang":"lr","lr":{"left":"a","right":"b"}}]}}`},
		{"site mismatch", `{"format":1,"sites":{"s":[{"site":"other","version":1,"lang":"lr","lr":{"left":"a","right":"b"}}]}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := store.Load(write("bad.json", tc.content)); err == nil {
				t.Fatal("expected load error")
			}
		})
	}
	if _, err := store.Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// testScorer builds generic ranking models (mirrors autowrap.GenericModels,
// which the internal packages cannot import).
func testScorer() *rank.Scorer {
	schema := stats.MustKDE([]int{2, 3, 3, 4, 4, 5, 5, 6}, stats.KDEOptions{Support: 64})
	align := stats.MustKDE([]int{0, 0, 0, 1, 1, 2, 3, 5}, stats.KDEOptions{Support: 256})
	return &rank.Scorer{
		Ann: rank.NewAnnotationModel(0.95, 0.30),
		Pub: &rank.PublicationModel{Schema: schema, Align: align},
	}
}

func TestFromBatchStoresWinners(t *testing.T) {
	dict := annotate.NewDictionary("vals", []string{"Alpha", "Beta", "Gamma", "Delta"})
	specs := []engine.SiteSpec{
		{
			Name:      "site-x",
			Corpus:    testCorpus(t),
			Annotator: dict,
			NewInductor: func(c *corpus.Corpus) (wrapper.Inductor, error) {
				return xpinduct.New(c, xpinduct.Options{}), nil
			},
			Config: core.Config{Scorer: testScorer()},
		},
		{
			Name:      "site-y",
			Corpus:    testCorpus(t),
			Annotator: dict,
			NewInductor: func(c *corpus.Corpus) (wrapper.Inductor, error) {
				return lr.New(c, 0), nil
			},
			Config: core.Config{Scorer: testScorer()},
		},
		{
			// A site with no labels is skipped by the engine and must not
			// land in the store.
			Name:      "site-empty",
			Corpus:    testCorpus(t),
			Annotator: annotate.NewDictionary("none", []string{"zzz-not-there"}),
			NewInductor: func(c *corpus.Corpus) (wrapper.Inductor, error) {
				return xpinduct.New(c, xpinduct.Options{}), nil
			},
			Config: core.Config{Scorer: testScorer()},
		},
	}
	batch, err := engine.LearnBatch(context.Background(), specs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	stored, err := s.PutBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 2 || s.Len() != 2 {
		t.Fatalf("stored %d sites (Len %d), want 2", stored, s.Len())
	}
	for _, site := range []string{"site-x", "site-y"} {
		e, ok := s.Latest(site)
		if !ok {
			t.Fatalf("site %q missing from store", site)
		}
		p, err := e.Compile()
		if err != nil {
			t.Fatal(err)
		}
		// The stored wrapper extracts the record list on a page it has
		// never been applied to as a compiled artifact.
		c := testCorpus(t)
		nodes := p.ApplyPage(htmlparse.Parse(c.Pages[1].HTML))
		if len(nodes) == 0 {
			t.Fatalf("site %q: stored wrapper extracted nothing", site)
		}
		for _, n := range nodes {
			if txt := strings.TrimSpace(n.Data); txt != "Gamma" && txt != "Delta" {
				t.Fatalf("site %q: extracted unexpected node %q", site, txt)
			}
		}
		if e.Labels == 0 {
			t.Fatalf("site %q: label count not recorded: %+v", site, e)
		}
	}
	if _, ok := s.Latest("site-empty"); ok {
		t.Fatal("skipped site must not be stored")
	}
}

// TestPromoteRollbackLifecycle exercises the staging half of the repair
// loop: Put promotes, PutCandidate stages without flipping serving, and
// Promote/Rollback move the active version explicitly.
func TestPromoteRollbackLifecycle(t *testing.T) {
	c := testCorpus(t)
	s := store.New()
	px, _ := store.Compile(induceXPath(t, c))
	plr, _ := store.Compile(induceLR(t, c))

	if _, ok := s.Active("shop"); ok {
		t.Fatal("empty site reported an active version")
	}
	if _, err := s.Put("shop", px, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if a, ok := s.Active("shop"); !ok || a.Version != 1 {
		t.Fatalf("after Put, active = %+v, %v", a, ok)
	}

	// Staging a candidate must not flip serving.
	cand, err := s.PutCandidate("shop", plr, store.Meta{Score: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Version != 2 {
		t.Fatalf("candidate version = %d, want 2", cand.Version)
	}
	if a, _ := s.Active("shop"); a.Version != 1 {
		t.Fatalf("candidate flipped serving to v%d", a.Version)
	}
	if l, _ := s.Latest("shop"); l.Version != 2 {
		t.Fatalf("Latest = v%d, want the staged candidate", l.Version)
	}

	// Explicit promote flips; rollback reverts to the prior promotion.
	if _, err := s.Promote("shop", 2); err != nil {
		t.Fatal(err)
	}
	if a, _ := s.Active("shop"); a.Version != 2 {
		t.Fatalf("after promote, active = v%d", a.Version)
	}
	back, err := s.Rollback("shop")
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("rollback landed on v%d, want 1", back.Version)
	}
	if _, err := s.Rollback("shop"); err == nil {
		t.Fatal("rollback past the first promotion should fail")
	}
	if _, err := s.Promote("shop", 9); err == nil {
		t.Fatal("promoting a missing version should fail")
	}

	// The promotion log survives save/load.
	if _, err := s.Promote("shop", 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := s2.Active("shop"); a.Version != 2 {
		t.Fatalf("active after reload = v%d", a.Version)
	}
	if got := s2.Promotions("shop"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("promotion log after reload = %v", got)
	}
	if back, err := s2.Rollback("shop"); err != nil || back.Version != 1 {
		t.Fatalf("rollback after reload = %+v, %v", back, err)
	}
}

// TestLoadPreLifecycleStoreActivatesLatest checks backward compatibility:
// a registry written before promotion logs existed serves its newest
// version, exactly as it did then.
func TestLoadPreLifecycleStoreActivatesLatest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"format":1,"sites":{"s":[
		{"site":"s","version":1,"lang":"lr","lr":{"left":"a","right":"b"}},
		{"site":"s","version":2,"lang":"lr","lr":{"left":"c","right":"d"}}]}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := s.Active("s"); !ok || a.Version != 2 {
		t.Fatalf("pre-lifecycle store active = %+v, %v", a, ok)
	}
}

// TestLoadErrorsNameSiteVersionAndPath pins the debuggability contract: a
// bad stored rule fails at load time naming the file, the site, and the
// version — not just the codec error.
func TestLoadErrorsNameSiteVersionAndPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.json")
	content := `{"format":1,"sites":{"shop-7":[
		{"site":"shop-7","version":1,"lang":"lr","lr":{"left":"a","right":"b"}},
		{"site":"shop-7","version":2,"lang":"xpath","rule":"///["}]}}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := store.Load(path)
	if err == nil {
		t.Fatal("expected load error")
	}
	msg := err.Error()
	for _, want := range []string{path, `"shop-7"`, "v2"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("load error %q does not name %q", msg, want)
		}
	}
	if strings.Count(msg, "store:") != 1 {
		t.Fatalf("load error %q stutters the package prefix", msg)
	}

	// A promotion log pointing at a missing version is named too.
	path2 := filepath.Join(dir, "badlog.json")
	content2 := `{"format":1,"sites":{"s":[{"site":"s","version":1,"lang":"lr","lr":{"left":"a","right":"b"}}]},"promotions":{"s":[3]}}`
	if err := os.WriteFile(path2, []byte(content2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(path2); err == nil || !strings.Contains(err.Error(), "v3") {
		t.Fatalf("bad promotion log error = %v", err)
	}
}

// TestPutBatchRecordsProfile checks that batch winners carry their
// learn-time health profile into the store.
func TestPutBatchRecordsProfile(t *testing.T) {
	c := testCorpus(t)
	batch, err := engine.LearnBatch(context.Background(), []engine.SiteSpec{{
		Name:   "profiled",
		Corpus: c,
		Labels: valueLabels(t, c),
		NewInductor: func(c *corpus.Corpus) (wrapper.Inductor, error) {
			return xpinduct.New(c, xpinduct.Options{}), nil
		},
		Config: core.Config{Scorer: testScorer()},
	}}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	if n, err := s.PutBatch(batch); err != nil || n != 1 {
		t.Fatalf("PutBatch: n=%d err=%v", n, err)
	}
	e, _ := s.Active("profiled")
	if e.Profile == nil {
		t.Fatal("batch winner stored without a profile")
	}
	if e.Profile.Pages != 2 || e.Profile.MeanRecords != 2 || e.Profile.EmptyFrac != 0 {
		t.Fatalf("profile = %+v, want 2 pages x 2 records", e.Profile)
	}
	// The profile survives the wire format.
	path := filepath.Join(t.TempDir(), "p.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := s2.Active("profiled")
	if e2.Profile == nil || e2.Profile.MeanRecords != 2 {
		t.Fatalf("profile lost over save/load: %+v", e2.Profile)
	}
}

// TestCandidateOnlySiteStaysInactiveAcrossReload pins the serving
// invariant through persistence: a site holding only staged (never
// promoted) candidates must not acquire an active version from a
// Save/Load round trip — the pre-lifecycle newest-serves synthesis
// applies only to files with no promotions key at all.
func TestCandidateOnlySiteStaysInactiveAcrossReload(t *testing.T) {
	c := testCorpus(t)
	s := store.New()
	px, _ := store.Compile(induceXPath(t, c))
	if _, err := s.PutCandidate("staged-only", px, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Active("staged-only"); ok {
		t.Fatal("candidate-only site active before save")
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := s2.Active("staged-only"); ok {
		t.Fatalf("reload activated the unpromoted candidate v%d", a.Version)
	}
	if _, ok := s2.Latest("staged-only"); !ok {
		t.Fatal("staged candidate lost over reload")
	}
	// A mixed store keeps the distinction per site.
	if _, err := s.Put("promoted", px, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s3, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Active("staged-only"); ok {
		t.Fatal("mixed store activated the candidate-only site")
	}
	if a, ok := s3.Active("promoted"); !ok || a.Version != 1 {
		t.Fatalf("promoted site active = %+v, %v", a, ok)
	}
}
