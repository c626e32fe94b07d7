package serve_test

import (
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"autowrap/internal/corpus"
	"autowrap/internal/dom"
	"autowrap/internal/extract"
	"autowrap/internal/htmlparse"
	"autowrap/internal/serve"
	"autowrap/internal/testutil/race"
	"autowrap/internal/wrapper"
	"autowrap/internal/xpinduct"
)

// TestNestingBomb is the first row of the robustness table: a page of
// nothing but unclosed start tags, as large as the default body cap lets
// in. Before the parser bounded its depth, the tree it built was a path ten
// million nodes long and the first recursive reader — dom.AppendHTML under
// an LR rule, Node.Walk under a '//' step, the corpus indexer's tree walk
// on a repair body — ended the process with "fatal error: stack overflow",
// which no recover catches. Every route a page can take must now give a
// result or a page error.
func TestNestingBomb(t *testing.T) {
	if race.Enabled {
		t.Skip("tens of megabytes a page; the race job's budget goes to concurrency")
	}
	const record = `<div class="a">alpha-0-0</div>`
	bomb := func(bytes int) string { return record + strings.Repeat("<a>", bytes/3) + "x" }

	t.Run("ExtractOne", func(t *testing.T) {
		page := bomb(32 << 20)
		xp, err := xpinduct.CompileRule(`//text()`)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			p    wrapper.Portable
			want []string
		}{{xp, []string{"alpha-0-0", "x"}}, {wrapperFor("a"), []string{"alpha-0-0"}}} {
			res := extract.New(tc.p, extract.Options{}).ExtractOne(extract.Page{ID: "bomb", HTML: page})
			if res.Err != nil || !slices.Equal(res.Texts, tc.want) {
				t.Fatalf("%s: %d texts, err %v", tc.p.Lang(), len(res.Texts), res.Err)
			}
		}
	})

	// The tree routes read an eighth of the cap: a leaf per tag is a
	// hundred bytes of node, and what bounds the recursion is the depth —
	// which no longer grows with the page.
	t.Run("corpus", func(t *testing.T) {
		page := bomb(4 << 20)
		c := corpus.ParseHTML([]string{page})
		depth, levels := 0, make([]int, c.NumElements())
		for e := range levels {
			levels[e] = 1
			if p := c.Element(e).Parent; p >= 0 {
				levels[e] += levels[p]
			}
			depth = max(depth, levels[e])
		}
		if depth > 600 {
			t.Fatalf("the parsed page is %d levels deep", depth)
		}
		if c.NumTexts() != 2 {
			t.Fatalf("the corpus indexes %d texts, want the two after the tags", c.NumTexts())
		}
		html := c.Pages[0].HTML
		if again := dom.Serialize(htmlparse.Parse(html)); again != html {
			t.Fatal("the capped tree is not a fixed point of serialize → reparse")
		}
		if got := wrapperFor("a").ApplyPage(htmlparse.Parse(html)); len(got) != 1 {
			t.Fatalf("ApplyPage on the capped tree matched %d nodes", len(got))
		}
	})

	// As one request: '<' needs no escape in a JSON string, so the page
	// fills the cap but for the envelope around it.
	t.Run("POST /v1/extract", func(t *testing.T) {
		_, hs := newTestServer(t, twoVersionStore(t), nil)
		head, tail := `{"site":"shop","page":{"id":"bomb","html":"`, `"}}`
		page := strings.ReplaceAll(bomb(32<<20-len(head)-len(tail)-2*len(record)), `"`, `\"`)
		body := head + page + tail
		if len(body) > 32<<20 {
			t.Fatalf("the request is %d bytes, over the cap", len(body))
		}
		resp, err := http.Post(hs.URL+"/v1/extract", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		out := decode[serve.ExtractResponse](t, resp)
		if len(out.Results) != 1 || out.Results[0].Error != "" || !slices.Equal(out.Results[0].Records, []string{"alpha-0-0"}) {
			t.Fatalf("response: %d results", len(out.Results))
		}
	})
}

// TestAttributeBomb is the second row of the robustness table, a size bomb
// in the HTML itself: one start tag of millions of attributes, as large as
// the default body cap lets in. Before the tokenizer kept at most maxAttrs
// of them, such a page made Stream allocate 3 GB and Parse 6.5 GB — a
// 32-byte dom.Attr each, in slices doubling to hold them. Every route must
// now answer from little more memory than the page itself.
//
// The tokenizer also keeps only the first of repeated attributes, checked
// while fewer than maxAttrs are kept. The second bomb aims at that check:
// 511 distinct names, then millions of copies of the 511th, each of which
// a scan of the kept attributes would compare with all 511.
func TestAttributeBomb(t *testing.T) {
	if race.Enabled {
		t.Skip("tens of megabytes a page; the race job's budget goes to concurrency")
	}
	const record = `<div class="a">alpha-0-0</div>`
	// bomb fills one start tag with attributes k0, k1, ... up to the given
	// size — with repeat, k510 over and over past the 511th.
	bomb := func(bytes int, repeat bool) string {
		head, tail := "<html><body>"+record+"<a", ">x</a></body></html>"
		buf := make([]byte, 0, bytes)
		buf = append(buf, head...)
		for i := 0; ; i++ {
			if repeat {
				i = min(i, 510)
			}
			attr := strconv.AppendInt([]byte(" k"), int64(i), 10)
			if len(buf)+len(attr)+len(tail) > bytes {
				break
			}
			buf = append(buf, attr...)
		}
		return string(append(buf, tail...))
	}
	// allocated runs fn and reports the bytes it allocated, across every
	// goroutine — the HTTP server's included.
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	t.Run("ExtractOne", func(t *testing.T) {
		xp, err := xpinduct.CompileRule(`//text()`)
		if err != nil {
			t.Fatal(err)
		}
		// took[repeat] is the slower rule's time on that bomb: the check
		// that drops repeats must be as linear as the scan it rides on.
		var took [2]time.Duration
		for r, repeat := range []bool{false, true} {
			page := bomb(32<<20, repeat)
			for _, tc := range []struct {
				p    wrapper.Portable
				want []string
			}{{xp, []string{"alpha-0-0", "x"}}, {wrapperFor("a"), []string{"alpha-0-0"}}} {
				var res extract.Result
				start := time.Now()
				n := allocated(func() {
					res = extract.New(tc.p, extract.Options{}).ExtractOne(extract.Page{ID: "bomb", HTML: page})
				})
				took[r] = max(took[r], time.Since(start))
				if res.Err != nil || !slices.Equal(res.Texts, tc.want) {
					t.Fatalf("%s: texts %q, err %v", tc.p.Lang(), res.Texts, res.Err)
				}
				if n > 8*uint64(len(page)) {
					t.Fatalf("%s: a %d-byte page allocated %d bytes", tc.p.Lang(), len(page), n)
				}
			}
		}
		if took[1] > 10*took[0] {
			t.Fatalf("the repeated-name bomb took %v, the distinct-name one %v: the repeat check is not linear", took[1], took[0])
		}
	})

	// The tree keeps the first maxAttrs attributes, the first of each name,
	// and what it keeps is a fixed point of serialize → reparse.
	t.Run("corpus", func(t *testing.T) {
		for _, tc := range []struct {
			repeat bool
			want   int
		}{{false, 512}, {true, 511}} {
			page := bomb(4<<20, tc.repeat)
			var c *corpus.Corpus
			var html string
			n := allocated(func() {
				c = corpus.ParseHTML([]string{page})
				html = c.Pages[0].HTML
			})
			if n > 8*uint64(len(page)) {
				t.Fatalf("a %d-byte page allocated %d bytes to parse and serialize", len(page), n)
			}
			kept := -1
			for e := range c.NumElements() {
				if c.Element(e).Tag == "a" {
					kept = len(c.Attrs(e))
				}
			}
			if kept != tc.want {
				t.Fatalf("repeat=%v: the bomb's tag kept %d attributes, want %d", tc.repeat, kept, tc.want)
			}
			if again := dom.Serialize(htmlparse.Parse(html)); again != html {
				t.Fatal("the capped tree is not a fixed point of serialize → reparse")
			}
			if c.NumTexts() != 2 {
				t.Fatalf("the corpus indexes %d texts, want 2", c.NumTexts())
			}
		}
	})

	t.Run("POST /v1/extract", func(t *testing.T) {
		_, hs := newTestServer(t, twoVersionStore(t), nil)
		head, tail := `{"site":"shop","page":{"id":"bomb","html":"`, `"}}`
		page := strings.ReplaceAll(bomb(32<<20-len(head)-len(tail)-2, false), `"`, `\"`)
		body := head + page + tail
		if len(body) > 32<<20 {
			t.Fatalf("the request is %d bytes, over the cap", len(body))
		}
		var out serve.ExtractResponse
		n := allocated(func() {
			resp, err := http.Post(hs.URL+"/v1/extract", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			out = decode[serve.ExtractResponse](t, resp)
		})
		if len(out.Results) != 1 || out.Results[0].Error != "" || !slices.Equal(out.Results[0].Records, []string{"alpha-0-0"}) {
			t.Fatalf("response: %+v", out.Results)
		}
		if n > 8*uint64(len(body)) {
			t.Fatalf("a %d-byte request allocated %d bytes", len(body), n)
		}
	})
}
