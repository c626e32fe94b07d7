package extract_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/extract"
	"autowrap/internal/htmlparse"
	"autowrap/internal/lr"
	"autowrap/internal/testutil/refapply"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// page renders one synthetic listing page with n records.
func page(id int, n int) string {
	var sb strings.Builder
	sb.WriteString(`<html><body><h1>Site header</h1><div class="list"><table>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<tr><td class="v">rec-%d-%d</td><td>extra</td></tr>`, id, i)
	}
	sb.WriteString(`</table></div></body></html>`)
	return sb.String()
}

func pages(n int) []extract.Page {
	out := make([]extract.Page, n)
	for i := range out {
		out[i] = extract.Page{ID: fmt.Sprintf("p%03d", i), HTML: page(i, 2+i%4)}
	}
	return out
}

func compiled(t *testing.T) wrapper.Portable {
	t.Helper()
	p, err := xpinduct.CompileRule(`//td[@class='v']/text()`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunExtractsRecords(t *testing.T) {
	rt := extract.New(compiled(t), extract.Options{Workers: 4})
	in := pages(9)
	batch, err := rt.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(in) {
		t.Fatalf("got %d results for %d pages", len(batch.Results), len(in))
	}
	total := 0
	for i, res := range batch.Results {
		if res.Err != nil {
			t.Fatalf("page %d failed: %v", i, res.Err)
		}
		if res.ID != in[i].ID || res.Index != i {
			t.Fatalf("result %d misaligned: %+v", i, res)
		}
		want := 2 + i%4
		if len(res.Texts) != want {
			t.Fatalf("page %d extracted %v, want %d records", i, res.Texts, want)
		}
		for j, txt := range res.Texts {
			if txt != fmt.Sprintf("rec-%d-%d", i, j) {
				t.Fatalf("page %d record %d = %q", i, j, txt)
			}
		}
		total += len(res.Texts)
	}
	s := batch.Stats
	if s.Pages != 9 || s.Extracted != 9 || s.Failed != 0 || s.Unstarted != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Records != total {
		t.Fatalf("stats.Records = %d, want %d", s.Records, total)
	}
	if s.PagesPerSec() <= 0 || s.RecordsPerSec() <= 0 {
		t.Fatalf("throughput not measured: %s", s)
	}
}

// outcome is what the two entry points must agree on for one page.
type outcome struct {
	ID       string
	Index    int
	Texts    []string
	Failed   bool
	HasNodes bool
}

func outcomeOf(res extract.Result) outcome {
	return outcome{ID: res.ID, Index: res.Index, Texts: res.Texts, Failed: res.Err != nil, HasNodes: res.Nodes != nil}
}

func runOutcomes(t *testing.T, rt *extract.Runtime, in []extract.Page) []outcome {
	t.Helper()
	batch, err := rt.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]outcome, len(batch.Results))
	for i, res := range batch.Results {
		out[i] = outcomeOf(res)
	}
	return out
}

// mixedPages is a batch exercising every per-page branch: raw HTML, a
// caller-owned tree, a page that matches nothing and one that fails.
func mixedPages(n int) []extract.Page {
	in := pages(n)
	in[1] = extract.Page{ID: "tree", Root: htmlparse.Parse(page(1, 3))}
	in[2] = extract.Page{ID: "empty"} // neither Root nor HTML
	in[3] = extract.Page{ID: "no-match", HTML: `<html><body><p>nothing here</p></body></html>`}
	return in
}

// TestRunDeterministicAcrossWorkers is the serving-side determinism
// contract, for both entry points at once: Run ≡ per-page ExtractOne on
// Texts, Err and ID (and Index, which Run numbers), whatever the worker
// count — for an XPATH and an LR wrapper.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	in := mixedPages(25)
	lrRule := &lr.Compiled{Left: `<td class="v">`, Right: "</td>"}
	for name, p := range map[string]wrapper.Portable{"xpath": compiled(t), "lr": lrRule} {
		ref := make([]outcome, len(in))
		one := extract.New(p, extract.Options{})
		for i, pg := range in {
			ref[i] = outcomeOf(one.ExtractOne(pg))
			if ref[i].Index != 0 {
				t.Fatalf("%s: ExtractOne numbered page %d as %d", name, i, ref[i].Index)
			}
			ref[i].Index = i
		}
		if ref[0].Failed || len(ref[0].Texts) != 2 || !ref[2].Failed || len(ref[3].Texts) != 0 {
			t.Fatalf("%s: fixture outcomes = %+v", name, ref[:4])
		}
		for _, workers := range []int{1, 2, 4, 8, runtime.GOMAXPROCS(0), 0} {
			rt := extract.New(p, extract.Options{Workers: workers})
			if got := runOutcomes(t, rt, in); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s workers=%d: Run differs from per-page ExtractOne:\n got %+v\nwant %+v", name, workers, got, ref)
			}
		}
	}
}

// TestNodesOnlyForCallerOwnedTrees pins the one Nodes contract of
// ExtractOne and Run: a page the runtime parsed itself comes back
// with Texts only (its tree went back to the pool), a page that
// arrived as Page.Root comes back with the matched nodes of that very tree.
func TestNodesOnlyForCallerOwnedTrees(t *testing.T) {
	rt := extract.New(compiled(t), extract.Options{Workers: 2})
	root := htmlparse.Parse(page(5, 3))
	var want []*dom.Node
	root.Walk(func(n *dom.Node) bool {
		if n.Type == dom.TextNode && strings.HasPrefix(n.Data, "rec-") {
			want = append(want, n)
		}
		return true
	})
	in := []extract.Page{{ID: "html", HTML: page(5, 3)}, {ID: "tree", Root: root}}

	var got [][]extract.Result
	got = append(got, []extract.Result{rt.ExtractOne(in[0]), rt.ExtractOne(in[1])})
	batch, err := rt.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, batch.Results)

	for k, entry := range []string{"ExtractOne", "Run"} {
		html, tree := got[k][0], got[k][1]
		if html.Err != nil || tree.Err != nil || len(html.Texts) != 3 || !reflect.DeepEqual(html.Texts, tree.Texts) {
			t.Fatalf("%s: results = %+v / %+v", entry, html, tree)
		}
		if html.Nodes != nil {
			t.Fatalf("%s: HTML page leaked %d nodes of a recycled tree", entry, len(html.Nodes))
		}
		if !reflect.DeepEqual(tree.Nodes, want) {
			t.Fatalf("%s: Root page Nodes = %v, want the caller's %v", entry, tree.Nodes, want)
		}
	}
}

func TestRunIsolatesPageErrors(t *testing.T) {
	rt := extract.New(compiled(t), extract.Options{Workers: 3})
	in := pages(5)
	in[2] = extract.Page{ID: "empty"} // neither Root nor HTML
	batch, err := rt.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Results[2].Err == nil {
		t.Fatal("empty page should fail")
	}
	for i, res := range batch.Results {
		if i != 2 && res.Err != nil {
			t.Fatalf("page %d failed: %v", i, res.Err)
		}
	}
	if batch.Stats.Failed != 1 || batch.Stats.Extracted != 4 {
		t.Fatalf("stats = %+v", batch.Stats)
	}
	if got := batch.Failed(); len(got) != 1 || got[0].ID != "empty" {
		t.Fatalf("Failed() = %+v", got)
	}
}

// panicky panics on pages whose serialized form contains a marker.
type panicky struct{}

func (panicky) Lang() string                     { return "panic" }
func (panicky) Rule() string                     { return "panic()" }
func (p panicky) ApplyHTML(html string) []string { return refapply.Texts(p, html) }
func (panicky) ApplyPage(root *dom.Node) []*dom.Node {
	if strings.Contains(dom.Serialize(root), "boom") {
		panic("wrapper exploded")
	}
	return corpus.ExtractableTexts(root)
}

func TestRunIsolatesPanics(t *testing.T) {
	rt := extract.New(panicky{}, extract.Options{Workers: 2})
	in := pages(4)
	in[1].HTML = `<html><body><p>boom</p></body></html>`
	batch, err := rt.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Results[1].Err == nil || !strings.Contains(batch.Results[1].Err.Error(), "panicked") {
		t.Fatalf("panic not isolated: %v", batch.Results[1].Err)
	}
	for i, res := range batch.Results {
		if i != 1 && res.Err != nil {
			t.Fatalf("page %d failed: %v", i, res.Err)
		}
	}
}

// TestPanicReleasesWorkspace: a wrapper that panics mid-apply must not leak
// or poison the recycled tree its page was parsed into — on one worker, the
// page right after every panic extracts exactly what a fresh parse gives,
// through both entry points.
func TestPanicReleasesWorkspace(t *testing.T) {
	rt := extract.New(panicky{}, extract.Options{Workers: 1})
	var in []extract.Page
	for i := 0; i < 8; i++ {
		in = append(in, extract.Page{ID: "boom", HTML: fmt.Sprintf(`<html><body><p>boom %d</p><ul><li>x</li></ul></body></html>`, i)},
			extract.Page{ID: "ok", HTML: page(i, 3)})
	}
	check := func(entry string, i int, res extract.Result) {
		t.Helper()
		if in[i].ID == "boom" {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") || res.Texts != nil || res.Nodes != nil {
				t.Fatalf("%s page %d: panic not isolated: %+v", entry, i, res)
			}
			return
		}
		var want []string
		for _, n := range corpus.ExtractableTexts(htmlparse.Parse(in[i].HTML)) {
			want = append(want, strings.TrimSpace(n.Data))
		}
		if res.Err != nil || !reflect.DeepEqual(res.Texts, want) {
			t.Fatalf("%s page %d after a panic: %v (err %v), want %v", entry, i, res.Texts, res.Err, want)
		}
	}
	for i, pg := range in {
		check("ExtractOne", i, rt.ExtractOne(pg))
	}
	batch, err := rt.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch.Results {
		check("Run", i, res)
	}
}

// slowWrapper delays each page so cancellation can land mid-run.
type slowWrapper struct{ d time.Duration }

func (s slowWrapper) Lang() string                   { return "slow" }
func (s slowWrapper) Rule() string                   { return "slow" }
func (s slowWrapper) ApplyHTML(html string) []string { return refapply.Texts(s, html) }
func (s slowWrapper) ApplyPage(root *dom.Node) []*dom.Node {
	time.Sleep(s.d)
	return corpus.ExtractableTexts(root)
}

func TestRunCancellation(t *testing.T) {
	rt := extract.New(slowWrapper{d: 20 * time.Millisecond}, extract.Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	batch, err := rt.Run(ctx, pages(50))
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if batch.Stats.Unstarted == 0 {
		t.Fatalf("expected unstarted pages, stats = %+v", batch.Stats)
	}
	for _, res := range batch.Results {
		if res.Err != nil && !strings.Contains(res.Err.Error(), "not started") {
			t.Fatalf("unexpected page error: %v", res.Err)
		}
	}
}

func TestLRCompiledServesUnseenPages(t *testing.T) {
	// Learn LR delimiters on two pages, then serve a third, unseen page
	// through the runtime — the wrapper travels as delimiters only.
	train := corpus.ParseHTML([]string{page(0, 2), page(1, 3)})
	labels := train.MatchingText(func(s string) bool { return strings.HasPrefix(s, "rec-") })
	w, err := lr.New(train, 0).Induce(labels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lr.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	rt := extract.New(p, extract.Options{})
	batch, err := rt.Run(context.Background(), []extract.Page{{ID: "fresh", HTML: page(7, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"rec-7-0", "rec-7-1", "rec-7-2", "rec-7-3"}
	if !reflect.DeepEqual(batch.Results[0].Texts, want) {
		t.Fatalf("LR served %v, want %v", batch.Results[0].Texts, want)
	}
}

// TestHealthCountersAndOnResult checks the serving-side health tap: the
// lifetime counters classify pages into extracted/empty/failed, and the
// OnResult hook sees every completed page exactly once.
func TestHealthCountersAndOnResult(t *testing.T) {
	rt := extract.New(compiled(t), extract.Options{Workers: 4})
	var hooked atomic.Int64
	rtHooked := extract.New(compiled(t), extract.Options{
		Workers:  4,
		OnResult: func(res *extract.Result) { hooked.Add(1) },
	})
	in := pages(8)
	in = append(in,
		extract.Page{ID: "empty", HTML: "<html><body><p>no records here</p></body></html>"},
		extract.Page{ID: "bad"}, // neither Root nor HTML: per-page error
	)
	for _, r := range []*extract.Runtime{rt, rtHooked} {
		if _, err := r.Run(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	if got := hooked.Load(); got != int64(len(in)) {
		t.Fatalf("OnResult fired %d times for %d pages", got, len(in))
	}
	h := rt.Health()
	if h.Pages != int64(len(in)) || h.Failed != 1 || h.Empty != 1 {
		t.Fatalf("health = %+v", h)
	}
	wantRecords := int64(0)
	for i := 0; i < 8; i++ {
		wantRecords += int64(2 + i%4)
	}
	if h.Records != wantRecords {
		t.Fatalf("health records = %d, want %d", h.Records, wantRecords)
	}

	// The hook also fires on the single-page path.
	hooked.Store(0)
	for _, pg := range in {
		rtHooked.ExtractOne(pg)
	}
	if got := hooked.Load(); got != int64(len(in)) {
		t.Fatalf("ExtractOne OnResult fired %d times for %d pages", got, len(in))
	}
}

// TestExtractOneMatchesRun pins the single-page serving path: ExtractOne
// returns the same result Run gives for the page, with the same
// health accounting and OnResult tap, minus the batch machinery.
func TestExtractOneMatchesRun(t *testing.T) {
	var taps atomic.Int64
	rt := extract.New(compiled(t), extract.Options{
		OnResult: func(*extract.Result) { taps.Add(1) },
	})
	pg := extract.Page{ID: "one", HTML: page(7, 3)}

	res := rt.ExtractOne(pg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	batch, err := rt.Run(context.Background(), []extract.Page{pg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcomeOf(res), outcomeOf(batch.Results[0])) {
		t.Fatalf("ExtractOne %+v != Run %+v", outcomeOf(res), outcomeOf(batch.Results[0]))
	}
	if res.ID != "one" || res.Index != 0 || res.Elapsed <= 0 {
		t.Fatalf("result metadata = %+v", res)
	}
	if got := rt.Health(); got.Pages != 2 || got.Records != 6 {
		t.Fatalf("health after ExtractOne + Run = %+v, want 2 pages / 6 records", got)
	}
	if taps.Load() != 2 {
		t.Fatalf("OnResult fired %d times, want 2", taps.Load())
	}

	// Failures are isolated the same way as in Run.
	bad := rt.ExtractOne(extract.Page{ID: "empty"})
	if bad.Err == nil {
		t.Fatal("page with neither Root nor HTML succeeded")
	}
	if got := rt.Health(); got.Failed != 1 {
		t.Fatalf("health after failed page = %+v", got)
	}
}
