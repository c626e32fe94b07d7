package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"autowrap/internal/chaos"
	"autowrap/internal/drift"
	"autowrap/internal/lr"
	"autowrap/internal/shard"
	"autowrap/internal/store"
)

// peekBodies are the shapes the peek's contract names, on top of the
// decoders' own tables (maintenanceBodies, chaos.Seeds).
var peekBodies = []string{
	`{"site":"shop-0","page":{"id":"p1","html":"<html><b>x</b> \"q\" \\ <\/html>"}}`,
	`{"site":"shop-1","pages":[{"id":"a","html":"<b>1</b>"},{"html":"<b>2</b>"}],"timeout_ms":250}`,
	`{"page":{"html":"<b>site last</b>","site":"inner"},"timeout_ms":7,"site":"shop-2"}`,
	`{"s\u0069te":"shop-3","page":{"html":"<b>escaped key</b>"}}`,
	"{\"\u017fite\":\"shop-4\",\"timeout_m\u017f\":9,\"page\":{\"html\":\"<b>long s</b>\"}}",
	`{"site":"first","site":"shop-5","page":{"html":"<b>dup</b>"}}`,
	`{"site":"shop-6","site":null,"page":{"html":"<b>null keeps</b>"}}`,
	`{"site":"sh\u006fp-7","page":{"html":"<b>escaped value</b>"}}`,
	"{\"site\":\"bad-utf8 \xff\xfe\xc3\",\"page\":{\"html\":\"<b>coerced</b>\"}}",
	`{"site":"a\\","page":{"html":"ends in a backslash: \\"}}`,
	`{"site":"a\\\"b","x":"\\\\\"","page":{"html":"<b>runs</b>"}}`,
	`{"site":"x","timeout_ms":1e3}`,
	`{"site":"x","timeout_ms":-0}`,
	`{"site":"x","timeout_ms":007}`,
	`{"site":"x","timeout_ms":null}`,
	`{"site":"x","page":5}`,
	`{"site":"x","pages":{"0":"a"}}`,
	`{"site":"x","page":}`,
	`{"site":"x","page":,"a":1}`,
	`{"site":"x","page":tru}`,
	`{"site":"x","page":{"html":"unclosed}`,
	`{"site":"x","page":{"html":"h"}`,
	`{"site":"x","page":{"html":"h"}}}`,
	`{"site":"x","page":{"html":"h"}} trailing`,
	`{"site":"x","junk":[}]}`,
	`{"site":"x","junk":` + strings.Repeat("[", maxSkipDepth+5) + strings.Repeat("]", maxSkipDepth+5) + `}`,
	`{"site":"x","page":{"junk":` + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + `,"html":"<b>deep but legal</b>"}}`,
	`{"site":"x","junk":` + strings.Repeat(`{"a":`, 64) + `1` + strings.Repeat(`}`, 64) + `,"page":{"html":"<b>nested</b>"}}`,
	`{"site":"x","pages":["<b>a</b>","<b>b</b>"]}`,
	`{"site":"","pages":["a","b"]}`,
	`{"site":"x","pages":["a"]}`,
	`{"site":"x","pages":["a","b"],"corpus_dir":"d"}`,
	`{"site":"x","corpus_dir":7}`,
}

// checkPeek holds peekRoute to its contract on one body: it changes no byte;
// whichever of the three decoders accepts the body, the peek accepts it too
// and returns that decoder's site and timeout_ms — so a body the peek refuses
// is one every decoder refuses.
func checkPeek(t *testing.T, body []byte) {
	t.Helper()
	buf := bytes.Clone(body)
	site, ms, perr := peekRoute(buf)
	if !bytes.Equal(buf, body) {
		t.Fatalf("%q: the peek rewrote the body to %q", body, buf)
	}
	agree := func(decoder, wantSite string, wantMS int) {
		t.Helper()
		if perr != nil {
			t.Fatalf("%q: %s accepts what the peek refuses: %v", body, decoder, perr)
		}
		if site != wantSite || ms != wantMS {
			t.Fatalf("%q: peek routes by (%q, %d), %s decodes (%q, %d)", body, site, ms, decoder, wantSite, wantMS)
		}
	}
	sc := &extractScratch{body: bytes.Clone(body)}
	if decodeExtractRequest(sc) == nil {
		agree("decodeExtractRequest", sc.site, sc.timeoutMS)
	}
	for _, learn := range []bool{true, false} {
		var req LearnRequest
		if decodeMaintenanceRequest(bytes.Clone(body), &req, learn) == nil {
			agree("decodeMaintenanceRequest", req.Site, req.TimeoutMS)
		}
	}
}

// peekFleet is a forwarding front over two shard servers behind loopback
// listeners, and the means to ask what the front answered before it became
// a relay.
type peekFleet struct {
	ring   *shard.Ring
	shards []*Server
	front  http.Handler
}

var peekRoutes = [...]string{"/v1/extract", "/v1/learn", "/v1/repair"}

func newPeekFleet(t testing.TB) *peekFleet {
	t.Helper()
	p := &peekFleet{ring: shard.NewRing(2, 64)}
	var peers []string
	for k := 0; k < 2; k++ {
		st := store.New()
		for _, site := range []string{"shop-0", "shop-1", "shop-2", "shop-3", "shop-4", "shop-5", "shop-6", "shop-7", "bad-utf8 \ufffd\ufffd\ufffd"} {
			if p.ring.Owner(site) != k {
				continue
			}
			if _, err := st.Put(site, &lr.Compiled{Left: "<b>", Right: "</b>"}, store.Meta{}); err != nil {
				t.Fatal(err)
			}
		}
		// A repairer, so that learn and repair bodies are validated, and
		// draining, so that none of them becomes a job: what passes
		// validation is a 503 both times it is asked.
		srv, err := NewServer(ServerConfig{
			Dispatcher: NewDispatcher(st, Options{}),
			Repairer:   &drift.Repairer{},
			Ring:       p.ring,
			Shard:      k,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srv.SetDraining(true)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		p.shards = append(p.shards, srv)
		peers = append(peers, strings.TrimPrefix(hs.URL, "http://"))
	}
	fr, err := NewForwardRouter(p.ring, peers, ForwardOptions{Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	p.front = fr.Handler()
	return p
}

// before answers path and body as the front did when it decoded every body
// and forwarded what it had decoded: its own 400 for a body the route's
// decoder refuses, else the owning shard's answer — to the client's bytes
// for an extract, to the re-marshalled request for a learn or repair.
func (p *peekFleet) before(path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var site string
	fwd := body
	if path == "/v1/extract" {
		sc := &extractScratch{body: bytes.Clone(body)}
		if err := decodeExtractRequest(sc); err != nil {
			writeDecodeError(rec, err)
			return rec
		}
		site = sc.site
	} else {
		var req LearnRequest
		if err := decodeMaintenanceRequest(bytes.Clone(body), &req, path == "/v1/learn"); err != nil {
			writeDecodeError(rec, err)
			return rec
		}
		site = req.Site
		if path == "/v1/learn" {
			fwd, _ = json.Marshal(req)
		} else {
			fwd, _ = json.Marshal(req.repair())
		}
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(fwd))
	r.Header.Set(RingHashHeader, p.ring.Fingerprint())
	p.shards[p.ring.Owner(site)].Handler().ServeHTTP(rec, r)
	return rec
}

var elapsedRe = regexp.MustCompile(`"elapsed_us":[0-9]+`)

// check posts body to path on the relaying front and demands the status,
// relayed headers and body bytes of before.
func (p *peekFleet) check(t *testing.T, path string, body []byte) {
	t.Helper()
	got := httptest.NewRecorder()
	p.front.ServeHTTP(got, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if _, ms, _ := peekRoute(body); ms > 0 && got.Code == http.StatusServiceUnavailable &&
		strings.Contains(got.Body.String(), "i/o timeout") {
		return // the body's own timeout_ms beat the hop, as it would have before
	}
	want := p.before(path, body)
	mask := func(b []byte) string { return string(elapsedRe.ReplaceAll(b, []byte(`"elapsed_us":0`))) }
	if got.Code != want.Code || mask(got.Body.Bytes()) != mask(want.Body.Bytes()) {
		t.Fatalf("%s %q:\n relay  %d %s before %d %s", path, body, got.Code, got.Body, want.Code, want.Body)
	}
	for _, k := range []string{"Content-Type", "Retry-After", "Allow", "Location"} {
		if g, w := got.Header().Get(k), want.Header().Get(k); g != w {
			t.Fatalf("%s %q: %s = %q, before %q", path, body, k, g, w)
		}
	}
}

// TestPeekRoute runs the peek's contract over the fixed corpus: the decoder
// tables, the chaos seeds and mutations, and the shapes named above.
func TestPeekRoute(t *testing.T) {
	bodies := chaos.Seeds()
	for _, b := range maintenanceBodies {
		bodies = append(bodies, []byte(b))
	}
	for _, b := range peekBodies {
		bodies = append(bodies, []byte(b))
	}
	mutated := chaos.NewBodies(4)
	for i := 0; i < 64; i++ {
		bodies = append(bodies, mutated.Malformed())
	}
	fleet := newPeekFleet(t)
	if rec := postTo(fleet.front, "/v1/extract", peekBodies[0]); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"records":["x"]`) {
		t.Fatalf("the fixture does not extract through the relay: %d %s", rec.Code, rec.Body)
	}
	for _, body := range bodies {
		checkPeek(t, body)
		for _, path := range peekRoutes {
			fleet.check(t, path, body)
		}
	}

	// The peek is not a validator, but what it does read it reads strictly.
	for body, want := range map[string]struct {
		site string
		ms   int
		ok   bool
	}{
		`{"site":"a","timeout_ms":5,"page":{"html":"<p>"}}`: {"a", 5, true},
		`{"site":"x","page":5}`:                             {"x", 0, true}, // the shard's 400
		`{"site":"x","page":{"html":"h"}}}`:                 {"x", 0, true}, // the shard's 400 on /v1/extract
		`null`:                                              {"", 0, true},
		`{"site":42}`:                                       {},
		`{"site":"x","timeout_ms":1e3}`:                     {},
		`{"site":"x","timeout_ms":007}`:                     {},
		`{"site":"x"} trailing`:                             {},
		`{"site":"x","page":{"html":"unclosed}`:             {},
		`{"site":"x","page":}`:                              {},
		`["site"]`:                                          {},
	} {
		site, ms, err := peekRoute([]byte(body))
		if (err == nil) != want.ok || site != want.site || ms != want.ms {
			t.Errorf("peekRoute(%s) = (%q, %d, %v), want (%q, %d, ok=%v)", body, site, ms, err, want.site, want.ms, want.ok)
		}
	}
}
