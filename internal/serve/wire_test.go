package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"autowrap/internal/extract"
)

// decodeRef is the reference decode: encoding/json into the wire struct,
// with the same strictness the old readJSON had (DisallowUnknownFields was
// never set; trailing data was rejected). The trailing check is
// byte-accurate rather than dec.More() — More() never flags a stray '}'
// or ']' after the value, and "anything but whitespace is trailing data"
// is the contract the wire decoder actually enforces.
func decodeRef(body []byte) (ExtractRequest, error) {
	var req ExtractRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	rest := body[dec.InputOffset():]
	for _, c := range rest {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return req, errors.New("trailing data after JSON body")
		}
	}
	return req, nil
}

func decodeFast(t *testing.T, body []byte) (*extractScratch, error) {
	t.Helper()
	sc := &extractScratch{body: append([]byte(nil), body...)}
	err := decodeExtractRequest(sc)
	return sc, err
}

// checkExtractDecode holds decodeExtractRequest to the reference on one
// body, through a pooled scratch as the handler uses one: an error exactly
// when the reference errors, the same fields otherwise — page HTML read as
// the view of the body it is, before release — and, once the scratch is
// released and its body scribbled over as the pool's next user would, the
// same site, page IDs and recent-page ring: nothing that outlives the
// request aliases the body.
func checkExtractDecode(t *testing.T, body []byte) {
	t.Helper()
	ref, refErr := decodeRef(body)
	sc := acquireScratch()
	sc.body = append(sc.body[:0], body...)
	fastErr := decodeExtractRequest(sc)
	if (refErr == nil) != (fastErr == nil) || refErr != nil {
		releaseScratch(sc)
		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("%q: error mismatch: encoding/json=%v fast=%v", body, refErr, fastErr)
		}
		return
	}
	if sc.site != ref.Site || sc.timeoutMS != ref.TimeoutMS || sc.hasSingle != (ref.Page != nil) {
		t.Fatalf("%q: site %q timeout_ms %d page set %v, want %q %d %v",
			body, sc.site, sc.timeoutMS, sc.hasSingle, ref.Site, ref.TimeoutMS, ref.Page != nil)
	}
	// The pages the handler would serve, in request order, and their
	// reference values.
	var served []extract.Page
	var want []PageInput
	if sc.hasSingle {
		served = append(served, extract.Page{ID: sc.single.id, HTML: sc.single.html})
		want = append(want, *ref.Page)
	}
	if len(sc.pages) != len(ref.Pages) {
		t.Fatalf("%q: %d pages, want %d", body, len(sc.pages), len(ref.Pages))
	}
	for _, pg := range sc.pages {
		served = append(served, extract.Page{ID: pg.id, HTML: pg.html})
	}
	want = append(want, ref.Pages...)
	var wantRing []string
	for i, pg := range served {
		if pg.ID != want[i].ID || pg.HTML != want[i].HTML {
			t.Fatalf("%q: page %d = %+v, want %+v", body, i, pg, want[i])
		}
		if pg.HTML != "" {
			wantRing = append(wantRing, want[i].HTML)
		}
	}
	var ring siteState
	ring.rememberPages(len(served)+1, served)

	site, buf := sc.site, sc.body[:cap(sc.body)]
	releaseScratch(sc)
	for i := range buf {
		buf[i] = 'Z'
	}
	if site != ref.Site {
		t.Fatalf("%q: site = %q after release, want %q", body, site, ref.Site)
	}
	for i, pg := range served {
		if pg.ID != want[i].ID {
			t.Fatalf("%q: page %d id = %q after release, want %q", body, i, pg.ID, want[i].ID)
		}
	}
	if got := ring.recentPages(); !slices.Equal(got, wantRing) {
		t.Fatalf("%q: recent-page ring = %q after release, want %q", body, got, wantRing)
	}
}

// extractBodies are the request shapes the decode contract names, valid
// and invalid; the decoders must agree on every one.
var extractBodies = []string{
	`{"site":"shop","page":{"id":"p1","html":"<html><body>x</body></html>"}}`,
	`{"site":"shop","pages":[{"id":"a","html":"<p>1</p>"},{"html":"<p>2</p>"}]}`,
	`{"site":"shop","pages":[]}`,
	`{"site":"shop","pages":null}`,
	`{"site":"shop","page":null}`,
	`{}`,
	`{"site":""}`,
	`{"site":"s","timeout_ms":250}`,
	`{"site":"s","timeout_ms":-3}`,
	`{"SITE":"upper","Pages":[{"ID":"x","HTML":"<i>y</i>"}]}`,
	`{"site":"esc","page":{"id":"a\tb","html":"<p>\u0041\u00e9\u2603 \ud83d\ude00 q\\\"r</p>"}}`,
	`{"site":"lone","page":{"html":"\ud800 tail"}}`,
	`{"site":"ctrl","page":{"html":"line1\nline2\r\t\u0001"}}`,
	`{"site":"html","page":{"html":"\u003cp class=\"a\"\u003eA \u0026amp; B\u003c/p\u003e\u007F\u0080\u00ff ÿþ"}}`,
	`{"site":"short","page":{"html":"\"\\\/\b\f\n\r\t\u00"}}`,
	"  {\n\t\"site\" : \"ws\" , \"pages\" : [ {\"html\":\"<p>a</p>\"} ] }  \n",
	`{"site":"extra","unknown":{"deep":[1,2,{"x":null}],"s":"v"},"page":{"html":"h","junk":true}}`,
	`{"site":"dupes","site":"last-wins"}`,
	`{"site":"solidus","page":{"html":"a\/b"}}`,
	`{"site":"nulls","page":null,"pages":null,"timeout_ms":null}`,
	`null`,
	`{"site":null}`,
	`{"num":1.25e+3,"site":"n"}`,
	`{"num":-0,"site":"n"}`,
	// a repeated key decodes over what the earlier one left
	`{"site":"s","pages":[{"id":"a","html":"x"}],"pages":[{"html":"y"}]}`,
	`{"site":"s","pages":[{"id":"a","html":"x"}],"pages":[null]}`,
	`{"site":"s","page":{"id":"a","html":"x"},"page":{"html":"y"}}`,
	`{"site":"s","pages":[{"id":"a"},{"id":"b","html":"x"}],"pages":[{"html":"y"}],"pages":[null,null]}`,
	`{"site":"s","page":{"id":"a","html":"x"},"page":null,"page":{"html":"y"}}`,
	`{"site":"s","pages":[{"id":"a","html":"x"}],"pages":[],"pages":[null]}`,
	`{"site":"s","pages":[{"id":"a","html":"x"}],"pages":null,"pages":[null]}`,
	`{"site":"s","pages":[{"id":"a","html":"x","id":null,"html":null}]}`,
	// invalid bodies: both decoders must reject
	``,
	`{"site":"x"`,
	`{"site":"x"} trailing`,
	`{"site":"x"}{}`,
	`["not an object"]`,
	`{"site":42}`,
	`{"site":"x","timeout_ms":"fast"}`,
	`{"site":"x","timeout_ms":1.5}`,
	`{"site":"x","pages":{"html":"h"}}`,
	`{"site":"x","page":["h"]}`,
	`{"site":"x","page":{"html":"unterminated}`,
	`{"site":"bad\escape"}`,
	`{"site":"x","page":{"html":"\u00"}}`,
	`{"site":"x","page":{"html":"\u00g0"}}`,
	`{"site":"x","page":{"html":"tab	inside"}}`,
	`{"site":"x",}`,
	`{"site" "x"}`,
	`{"":00}`,
	`{"num":01,"site":"x"}`,
	`{"num":1.,"site":"x"}`,
	`{"num":1e,"site":"x"}`,
	`{"num":1e+,"site":"x"}`,
	`{"site":"x","timeout_ms":00}`,
	`{"site":"x"}}`,
}

// TestDecodeExtractRequestMatchesEncodingJSON pins the hand-rolled decoder
// to encoding/json semantics over the request shapes the service accepts:
// same decoded fields on valid bodies, an error wherever the reference
// errors.
func TestDecodeExtractRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range extractBodies {
		checkExtractDecode(t, []byte(body))
	}
}

// TestDecodeInvalidUTF8MatchesEncodingJSON pins the U+FFFD coercion: raw
// invalid UTF-8 bytes inside string values decode to the same replacement
// characters encoding/json produces.
func TestDecodeInvalidUTF8MatchesEncodingJSON(t *testing.T) {
	body := []byte(`{"site":"a` + string([]byte{0xff, 0xfe}) + `b","page":{"html":"x` + string([]byte{0xC3}) + `"}}`)
	ref, refErr := decodeRef(body)
	sc, fastErr := decodeFast(t, body)
	if refErr != nil || fastErr != nil {
		t.Fatalf("decode errors: encoding/json=%v fast=%v", refErr, fastErr)
	}
	if sc.site != ref.Site {
		t.Errorf("site = %q, want %q", sc.site, ref.Site)
	}
	if ref.Page == nil || sc.single.html != ref.Page.HTML {
		t.Errorf("html = %q, want %+v", sc.single.html, ref.Page)
	}
}

// TestDecodedStringsDoNotAliasBody pins the ownership contract: the site
// and page IDs, which outlive the request, survive the body buffer being
// recycled and scribbled over; page HTML is a view of the buffer, exact
// until then.
func TestDecodedStringsDoNotAliasBody(t *testing.T) {
	body := []byte(`{"site":"shop","pages":[{"id":"p-1","html":"<p>keep \u0041 this</p>"}]}`)
	sc, err := decodeFast(t, body)
	if err != nil {
		t.Fatal(err)
	}
	if html := sc.pages[0].html; html != "<p>keep A this</p>" {
		t.Fatalf("html = %q before release", html)
	}
	site, id := sc.site, sc.pages[0].id
	for i := range sc.body {
		sc.body[i] = 'Z'
	}
	if site != "shop" || id != "p-1" {
		t.Fatalf("decoded strings changed after buffer reuse: %q %q", site, id)
	}
}

// encodeRef is the reference encoding: what writeJSON put on the wire for
// the response the old handler built from the same Extraction.
func encodeRef(t *testing.T, ext *Extraction, reqErr error) []byte {
	t.Helper()
	resp := ExtractResponse{Site: ext.Site, Version: ext.Version,
		Results: make([]PageOutput, len(ext.Results))}
	for i := range ext.Results {
		res := &ext.Results[i]
		out := PageOutput{ID: res.ID, Records: res.Texts,
			ElapsedUS: res.Elapsed.Microseconds()}
		if out.Records == nil {
			out.Records = []string{}
		}
		if res.Err != nil {
			out.Error = res.Err.Error()
		}
		resp.Results[i] = out
	}
	if reqErr != nil {
		resp.Error = reqErr.Error()
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendExtractResponseByteIdentical locks the hand-rolled encoder to
// encoding/json's exact bytes — field order, omitempty behavior, HTML-safe
// escaping, invalid-UTF-8 replacement and the trailing newline — across
// record contents chosen to hit every escaping branch.
func TestAppendExtractResponseByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		ext  Extraction
		err  error
	}{
		{name: "empty", ext: Extraction{Site: "s", Version: 1}},
		{name: "plain", ext: Extraction{Site: "shop", Version: 3, Results: []extract.Result{
			{ID: "p1", Texts: []string{"alpha", "beta"}, Elapsed: 1500 * time.Microsecond},
			{Texts: []string{}, Elapsed: time.Millisecond},
			{ID: "p3"},
		}}},
		{name: "escapes", ext: Extraction{Site: `si"te\`, Version: 12, Results: []extract.Result{
			{ID: "tab\tnl\n", Texts: []string{
				"<b>html & such</b>",
				"quote\" back\\ slash/ solidus",
				"ctrl\x01\x1f\r\t",
				"unicode é ☃ 😀",
				"ls\u2028ps\u2029end",
				"bad utf8 \xff\xc3 tail",
			}, Elapsed: 42 * time.Microsecond},
		}}},
		{name: "page error", ext: Extraction{Site: "s", Version: 2, Results: []extract.Result{
			{ID: "a", Err: errors.New(`page failed: <nil> & "why"`)},
		}}},
		{name: "request error", ext: Extraction{Site: "s", Version: 2, Results: []extract.Result{
			{ID: "a", Texts: []string{"x"}},
		}}, err: errors.New("context deadline exceeded")},
	}
	for _, tc := range cases {
		want := encodeRef(t, &tc.ext, tc.err)
		got := appendExtractResponse(nil, &tc.ext, tc.err)
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, want)
		}
	}
}

// decodeAllocBudget is the per-request decode ceiling for a warm scratch on
// a single-page request: one allocation per retained string (site, id; the
// html is a view of the body). See docs/PERFORMANCE.md before raising it.
const decodeAllocBudget = 2

// TestDecodeExtractRequestAllocBudget gates the decoder's steady-state
// allocations: with a warm scratch, decoding allocates only the strings
// that outlive the request.
func TestDecodeExtractRequestAllocBudget(t *testing.T) {
	body := `{"site":"shop","page":{"id":"p1","html":"<html><body>` +
		strings.Repeat("<p>row</p>", 32) + `</body></html>"}}`
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.body = append(sc.body[:0], body...)
	avg := testing.AllocsPerRun(200, func() {
		sc.site, sc.hasSingle, sc.single = "", false, pageIn{}
		if err := decodeExtractRequest(sc); err != nil {
			t.Fatal(err)
		}
		if !sc.hasSingle || sc.single.id != "p1" {
			t.Fatal("decode changed under measurement")
		}
	})
	if avg > decodeAllocBudget {
		t.Fatalf("decode allocates %.1f times per call, budget is %d", avg, decodeAllocBudget)
	}
}
