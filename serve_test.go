// Acceptance tests for the learn/serve split (ISSUE 2): a wrapper learned
// on one corpus, marshaled to JSON, unmarshaled as if in a fresh process,
// and applied to held-out pages of the same site must extract exactly the
// node set the inductor-native Extract() finds on those pages — for both
// the XPATH and the LR wrapper languages.
package autowrap_test

import (
	"context"
	"testing"

	"autowrap"
	"autowrap/internal/dataset"
	"autowrap/internal/dom"
	"autowrap/internal/experiments"
	"autowrap/internal/testutil/corpustree"
)

const servedPages = 10
const trainPages = 6

// serveDataset builds a small DEALERS dataset whose sites have enough pages
// to hold some out.
func serveDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Dealers(dataset.DealersOptions{NumSites: 6, NumPages: servedPages})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newInductor(t *testing.T, kind string, c *autowrap.Corpus) autowrap.Inductor {
	t.Helper()
	ind, err := experiments.NewInductor(kind, c)
	if err != nil {
		t.Fatal(err)
	}
	return ind
}

// testPortableMatchesNative runs the full acceptance cycle on every site of
// the dataset that yields enough labels.
func testPortableMatchesNative(t *testing.T, kind string) {
	ds := serveDataset(t)
	tested := 0
	heldPagesWithRecords := 0
	for _, site := range ds.Sites {
		// The corpus's canonical page HTML doubles as the "files on disk":
		// the train corpus parses only the first trainPages of them.
		var htmls []string
		for _, p := range site.Corpus.Pages {
			htmls = append(htmls, p.HTML)
		}
		train := autowrap.ParsePages(htmls[:trainPages])
		labels := ds.Annotator.Annotate(train)
		if labels.Count() < 2 {
			continue
		}
		res, err := autowrap.Learn(newInductor(t, kind, train), labels,
			autowrap.GenericModels(train), autowrap.Options{})
		if err != nil {
			t.Fatalf("site %s: learn: %v", site.Name, err)
		}
		if res.Best == nil {
			continue
		}
		learned := res.Best.Wrapper

		// Native reference: induce from the same closed label subset on the
		// corpus that includes the held-out pages, so Extract() covers them.
		full := autowrap.ParsePages(htmls)
		mapped := full.EmptySet()
		res.Best.TrainedOn.ForEach(func(ord int) {
			page, inPage := train.PageOf(ord), train.IndexInPage(ord)
			lo, hi := full.TextRange(page)
			fullOrd := lo + inPage
			if fullOrd >= hi {
				t.Fatalf("site %s: train node (%d,%d) missing from full corpus",
					site.Name, page, inPage)
			}
			mapped.Add(fullOrd)
		})
		native, err := newInductor(t, kind, full).Induce(mapped)
		if err != nil {
			t.Fatalf("site %s: native induce: %v", site.Name, err)
		}
		if native.Rule() != learned.Rule() {
			t.Fatalf("site %s: full-corpus induction diverged:\n  train: %s\n  full:  %s",
				site.Name, learned.Rule(), native.Rule())
		}

		// The portable cycle: compile, marshal, unmarshal "elsewhere".
		compiled, err := autowrap.Compile(learned)
		if err != nil {
			t.Fatalf("site %s: compile: %v", site.Name, err)
		}
		blob, err := autowrap.MarshalWrapper(compiled)
		if err != nil {
			t.Fatalf("site %s: marshal: %v", site.Name, err)
		}
		served, err := autowrap.UnmarshalWrapper(blob)
		if err != nil {
			t.Fatalf("site %s: unmarshal: %v", site.Name, err)
		}

		// Held-out pages: the served wrapper must pick exactly the nodes the
		// native extraction marks on those pages.
		nativeSet, trees := native.Extract(), corpustree.Of(full)
		for p := trainPages; p < len(full.Pages); p++ {
			want := make(map[*dom.Node]bool)
			lo, hi := full.TextRange(p)
			for ord := lo; ord < hi; ord++ {
				if nativeSet.Has(ord) {
					want[trees.Texts[ord]] = true
				}
			}
			got := served.ApplyPage(trees.Roots[p])
			if len(got) != len(want) {
				t.Fatalf("site %s page %d: served extracted %d nodes, native %d",
					site.Name, p, len(got), len(want))
			}
			for _, n := range got {
				if !want[n] {
					t.Fatalf("site %s page %d: served extracted unexpected node %q",
						site.Name, p, n.PathString())
				}
			}
			if len(want) > 0 {
				heldPagesWithRecords++
			}
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no site yielded enough labels; dataset options too small")
	}
	if heldPagesWithRecords == 0 {
		t.Fatal("degenerate: no held-out page had any extraction to compare")
	}
}

func TestPortableMatchesNativeXPath(t *testing.T) { testPortableMatchesNative(t, "xpath") }

func TestPortableMatchesNativeLR(t *testing.T) { testPortableMatchesNative(t, "lr") }

// TestLearnStoreRestartExtract exercises the full lifecycle through the
// facade: batch-learn, store the winners, save, reload (the "restart"),
// and serve held-out pages through the extraction runtime.
func TestLearnStoreRestartExtract(t *testing.T) {
	ds := serveDataset(t)
	var sites []autowrap.BatchSite
	var held [][]autowrap.ExtractPage
	for _, site := range ds.Sites {
		var htmls []string
		for _, p := range site.Corpus.Pages {
			htmls = append(htmls, p.HTML)
		}
		train := autowrap.ParsePages(htmls[:trainPages])
		sites = append(sites, autowrap.BatchSite{
			Name:      site.Name,
			Corpus:    train,
			Annotator: ds.Annotator,
			NewInductor: func(c *autowrap.Corpus) (autowrap.Inductor, error) {
				return autowrap.NewXPathInductor(c), nil
			},
			Config: autowrap.NewLearnConfig(autowrap.GenericModels(train), autowrap.Options{}),
		})
		var pages []autowrap.ExtractPage
		for i := trainPages; i < len(htmls); i++ {
			pages = append(pages, autowrap.ExtractPage{ID: site.Name, HTML: htmls[i]})
		}
		held = append(held, pages)
	}
	batch, err := autowrap.LearnBatch(context.Background(), sites, autowrap.BatchOptions{MinLabels: 2})
	if err != nil {
		t.Fatal(err)
	}

	st := autowrap.NewWrapperStore()
	stored, err := autowrap.StoreBatch(st, batch)
	if err != nil {
		t.Fatal(err)
	}
	if stored == 0 {
		t.Fatal("no site was stored")
	}
	path := t.TempDir() + "/wrappers.json"
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}

	// "Restart": everything below uses only the reloaded registry.
	reloaded, err := autowrap.LoadWrapperStore(path)
	if err != nil {
		t.Fatal(err)
	}
	extracted := 0
	for i, site := range sites {
		entry, ok := reloaded.Latest(site.Name)
		if !ok {
			continue
		}
		p, err := entry.Compile()
		if err != nil {
			t.Fatal(err)
		}
		rt := autowrap.NewExtractor(p, autowrap.ExtractOptions{Workers: 4})
		res, err := rt.Run(context.Background(), held[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range res.Results {
			if pr.Err != nil {
				t.Fatalf("site %s: %v", site.Name, pr.Err)
			}
			extracted += len(pr.Texts)
		}
		if res.Stats.Records != sumRecords(res) {
			t.Fatalf("site %s: stats records %d != %d", site.Name, res.Stats.Records, sumRecords(res))
		}
	}
	if extracted == 0 {
		t.Fatal("restart + extract produced no records on held-out pages")
	}
}

func sumRecords(b *autowrap.ExtractBatch) int {
	n := 0
	for _, r := range b.Results {
		n += len(r.Texts)
	}
	return n
}
