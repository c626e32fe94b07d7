package serve_test

import (
	"net/http"
	"slices"
	"strings"
	"testing"

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
// an LR rule, Node.Walk under a '//' step, corpus.New on a repair body —
// ended the process with "fatal error: stack overflow", which no recover
// catches. Every route a page can take must now give a result or a page
// error.
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
		depth := 0
		for n := c.Pages[0].Root; len(n.Children) > 0; n = n.Children[len(n.Children)-1] {
			depth++
		}
		if depth > 600 {
			t.Fatalf("the parsed tree is %d levels deep", depth)
		}
		if c.NumTexts() != 2 {
			t.Fatalf("the corpus indexes %d texts, want the two after the tags", c.NumTexts())
		}
		html := dom.Serialize(c.Pages[0].Root)
		if again := dom.Serialize(htmlparse.Parse(html)); again != html {
			t.Fatal("the capped tree is not a fixed point of serialize → reparse")
		}
		if got := wrapperFor("a").ApplyPage(c.Pages[0].Root); len(got) != 1 {
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
