package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autowrap/internal/lr"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/testutil/leakcheck"
	"autowrap/internal/testutil/race"
)

// peerAnswer is what a scripted peer does with one request.
type peerAnswer struct {
	raw   string // written in answer; "" writes nothing
	close bool   // then close the connection
	stall bool   // say nothing and hold the connection until the peer is closed
}

// scriptedPeer is a shard process reduced to a listener and a script: it
// reads HTTP requests off every connection it accepts and answers each with
// whatever the script says, byte for byte.
type scriptedPeer struct {
	ln     net.Listener
	script func(n int, r *http.Request, body []byte) peerAnswer

	mu       sync.Mutex
	conns    map[net.Conn]bool
	requests int
	accepted int
	hungUp   chan struct{} // one token per connection the front closed
	done     sync.WaitGroup
}

// newScriptedPeer listens on addr ("127.0.0.1:0" for any port).
func newScriptedPeer(t testing.TB, addr string, script func(n int, r *http.Request, body []byte) peerAnswer) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{ln: ln, script: script, conns: map[net.Conn]bool{}, hungUp: make(chan struct{}, 1024)}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns[c] = true
			p.accepted++
			p.mu.Unlock()
			p.done.Add(1)
			go p.serve(c)
		}
	}()
	t.Cleanup(p.close)
	return p
}

func (p *scriptedPeer) addr() string { return p.ln.Addr().String() }

// close stops the listener and every connection, and waits for the peer's
// goroutines: what a killed shard process leaves behind.
func (p *scriptedPeer) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.done.Wait()
}

func (p *scriptedPeer) counts() (requests, accepted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests, p.accepted
}

func (p *scriptedPeer) serve(c net.Conn) {
	defer p.done.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReader(c)
	for {
		r, err := http.ReadRequest(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				p.hungUp <- struct{}{}
			}
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.requests++
		n := p.requests
		p.mu.Unlock()
		a := p.script(n, r, body)
		if a.raw != "" {
			if _, err := io.WriteString(c, a.raw); err != nil {
				return
			}
		}
		if a.stall {
			if _, err := br.ReadByte(); errors.Is(err, io.EOF) {
				p.hungUp <- struct{}{}
			}
			return
		}
		if a.close {
			return
		}
	}
}

// okAnswer is the keep-alive 200 of a shard's writeRawJSON.
func okAnswer(body string) string {
	return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\nDate: Thu, 01 Jan 2026 00:00:00 GMT\r\n\r\n" + body
}

// linkFront is a forwarding front over one scripted peer.
func linkFront(t testing.TB, addr string, timeout time.Duration) (*ShardRouter, *peerLink) {
	t.Helper()
	fr, err := NewForwardRouter(shard.NewRing(1, 64), []string{addr}, ForwardOptions{
		SkipHandshake: true, RequestTimeout: timeout, Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr, fr.clients[0].(*httpShard).link
}

func (l *peerLink) idleCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}

func postTo(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// frontOverHTTP serves fr behind HTTPServer on a loopback port and returns
// a post with postTo's shape: the front's answer as its client reads it.
func frontOverHTTP(t testing.TB, fr *ShardRouter) func(path, body string) *httptest.ResponseRecorder {
	front := newLoopback(fr.Handler())
	t.Cleanup(front.Close)
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	return func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		resp, err := client.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("posting %s to the front: %v", path, err)
			return rec
		}
		defer resp.Body.Close()
		rec.Code = resp.StatusCode
		maps.Copy(rec.Header(), resp.Header)
		if _, err := io.Copy(rec.Body, resp.Body); err != nil {
			t.Errorf("reading the front's answer to %s: %v", path, err)
		}
		return rec
	}
}

const extractBody = `{"site":"shop","page":{"html":"<b>x</b>"}}`

// TestLinkRelaysEveryFraming: what the peer answers is what the client
// gets — status, the five relayed headers, the body — whatever the framing,
// and the connection is kept exactly when HTTP says it may be.
func TestLinkRelaysEveryFraming(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 5000) // five read buffers
	for _, c := range []struct {
		name, raw  string
		peerCloses bool
		status     int
		body       string
		headers    map[string]string
		pooled     bool
	}{
		{name: "length-delimited keep-alive", raw: okAnswer("{\"ok\":1}\n"),
			status: 200, body: "{\"ok\":1}\n", pooled: true,
			headers: map[string]string{"Content-Type": "application/json", "Content-Length": "9"}},
		{name: "connection: close", raw: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nok\n", peerCloses: true,
			status: 200, body: "ok\n", headers: map[string]string{"Content-Length": "3", "Content-Type": ""}},
		{name: "HTTP/1.0", raw: "HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nok\n", peerCloses: true,
			status: 200, body: "ok\n"},
		{name: "HTTP/1.0 keep-alive", raw: "HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 3\r\n\r\nok\n",
			status: 200, body: "ok\n", pooled: true},
		{name: "chunked", raw: "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"2\r\nok\r\n1;ext=\"v\"\r\n\n\r\n0\r\nX-Trailer: t\r\n\r\n",
			status: 200, body: "ok\n", pooled: true, headers: map[string]string{"Content-Type": "text/plain", "Content-Length": ""}},
		{name: "chunked beside a length", raw: "HTTP/1.1 200 OK\r\nContent-Length: 99\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nok\n\r\n0\r\n\r\n",
			status: 200, body: "ok\n", pooled: true, headers: map[string]string{"Content-Length": ""}},
		{name: "no length: to end of stream", raw: "HTTP/1.1 200 OK\r\n\r\nok\n", peerCloses: true,
			status: 200, body: "ok\n"},
		{name: "body larger than the read buffer", raw: okAnswer(big),
			status: 200, body: big, pooled: true},
		{name: "chunks larger than the read buffer", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			strconv.FormatInt(int64(len(big)), 16) + "\r\n" + big + "\r\n0\r\n\r\n",
			status: 200, body: big, pooled: true},
		{name: "204", raw: "HTTP/1.1 204 No Content\r\n\r\n", status: 204, pooled: true},
		{name: "429 + Retry-After", raw: "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: 23\r\n\r\n{\"error\":\"overloaded\"}\n",
			status: 429, body: "{\"error\":\"overloaded\"}\n", pooled: true, headers: map[string]string{"Retry-After": "1"}},
		{name: "421", raw: "HTTP/1.1 421 Misdirected Request\r\nContent-Length: 4\r\n\r\nnot\n",
			status: 421, body: "not\n", pooled: true},
		{name: "ring-mismatch 503", raw: "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 36\r\n\r\n{\"error\":\"ring agreement mismatch\"}\n",
			status: 503, body: "{\"error\":\"ring agreement mismatch\"}\n", pooled: true},
		{name: "202 + Location", raw: "HTTP/1.1 202 Accepted\r\nLocation: /v1/jobs/s0-job-000001\r\nContent-Length: 3\r\n\r\n{}\n",
			status: 202, body: "{}\n", pooled: true, headers: map[string]string{"Location": "/v1/jobs/s0-job-000001"}},
		{name: "405 + Allow", raw: "HTTP/1.1 405 Method Not Allowed\r\nallow: POST\r\nContent-Length: 3\r\n\r\n{}\n",
			status: 405, body: "{}\n", pooled: true, headers: map[string]string{"Allow": "POST"}},
		{name: "unasked bytes after the answer", raw: okAnswer("ok\n") + "HTTP/1.1 200 OK\r\n",
			status: 200, body: "ok\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := newScriptedPeer(t, "127.0.0.1:0", func(int, *http.Request, []byte) peerAnswer {
				return peerAnswer{raw: c.raw, close: c.peerCloses}
			})
			fr, link := linkFront(t, peer.addr(), time.Second)
			rec := postTo(fr.Handler(), "/v1/extract", extractBody)
			if rec.Code != c.status || rec.Body.String() != c.body {
				t.Fatalf("relayed %d %.60q, want %d %.60q", rec.Code, rec.Body, c.status, c.body)
			}
			for k, want := range c.headers {
				if got := rec.Header().Get(k); got != want {
					t.Errorf("relayed %s = %q, want %q", k, got, want)
				}
			}
			if got := link.idleCount() == 1; got != c.pooled {
				t.Fatalf("connection pooled = %v, want %v", got, c.pooled)
			}
		})
	}
}

// TestLinkFaults is the peer seam's row of the robustness table: each fault
// of the link is one named outcome at the front — a 503 wrapping
// ErrShardUnavailable and naming shard and address — never a panic, a hang
// or a connection kept for the next request to trip over. The front runs
// behind HTTPServer, as in the daemon.
func TestLinkFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  string
	}{
		{"peer closes without a word", ""},
		{"truncated status line", "HTTP/1.1 20"},
		{"truncated headers", "HTTP/1.1 200 OK\r\nContent-Le"},
		{"truncated body", "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"},
		{"malformed status line", "HTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"},
		{"not a status", "HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n"},
		{"HTTP/2 preface", "HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n"},
		{"informational status", "HTTP/1.1 100 Continue\r\n\r\n"},
		{"header without a colon", "HTTP/1.1 200 OK\r\nContent-Length 0\r\n\r\n"},
		{"bad content length", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"},
		{"unknown transfer encoding", "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n"},
		{"1 MiB header line", "HTTP/1.1 200 OK\r\nX-Big: " + strings.Repeat("a", 1<<20) + "\r\nContent-Length: 0\r\n\r\n"},
		{"headers without end", "HTTP/1.1 200 OK\r\n" + strings.Repeat("X-H: v\r\n", linkMaxHead/8+1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := newScriptedPeer(t, "127.0.0.1:0", func(int, *http.Request, []byte) peerAnswer {
				return peerAnswer{raw: c.raw, close: true}
			})
			fr, link := linkFront(t, peer.addr(), time.Second)
			rec := frontOverHTTP(t, fr)("/v1/extract", extractBody)
			want := fmt.Sprintf("%v: shard 0 (%s): /v1/extract: ", ErrShardUnavailable, peer.addr())
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("answered %d %s, want 503 naming %q", rec.Code, rec.Body, want)
			}
			if link.idleCount() != 0 {
				t.Fatal("the failed connection was pooled")
			}
			if n, _ := peer.counts(); n != 1 {
				t.Fatalf("the peer saw %d requests for one extract: a write-path request was re-sent", n)
			}
		})
	}

	t.Run("dead peer", func(t *testing.T) {
		peer := newScriptedPeer(t, "127.0.0.1:0", nil)
		addr := peer.addr()
		peer.close()
		fr, _ := linkFront(t, addr, time.Second)
		post := frontOverHTTP(t, fr)
		for _, path := range []string{"/v1/extract", "/v1/repair", "/v1/learn", "/v1/promote"} {
			rec := post(path, `{"site":"shop","version":2,"pages":["a","b"]}`)
			want := fmt.Sprintf("%v: shard 0 (%s): %s: ", ErrShardUnavailable, addr, path)
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("%s answered %d %s, want 503 naming %q", path, rec.Code, rec.Body, want)
			}
		}
	})

	// A peer restarted on its address leaves dead connections in the pool;
	// the probe finds them, and the next request — the very first — goes out
	// on a fresh dial. Nothing is answered 5xx, nothing sent twice.
	t.Run("peer restarted on the same address", func(t *testing.T) {
		script := func(int, *http.Request, []byte) peerAnswer { return peerAnswer{raw: okAnswer("ok\n")} }
		peer := newScriptedPeer(t, "127.0.0.1:0", script)
		addr := peer.addr()
		fr, link := linkFront(t, addr, time.Second)
		post := frontOverHTTP(t, fr)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ { // four connections into the pool
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := post("/v1/extract", extractBody); rec.Code != 200 {
					t.Errorf("before the restart: %d %s", rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
		// The client reads the relayed answer before the front's handler has
		// returned the peer's connection to the pool.
		waitFor(t, "a connection pooled before the restart", func() bool { return link.idleCount() > 0 })
		peer.close()
		reborn := newScriptedPeer(t, addr, script)
		if rec := post("/v1/extract", extractBody); rec.Code != 200 || rec.Body.String() != "ok\n" {
			t.Fatalf("first request after the restart: %d %s, want the new peer's 200", rec.Code, rec.Body)
		}
		if n, _ := reborn.counts(); n != 1 {
			t.Fatalf("the restarted peer saw %d requests, want 1", n)
		}
	})

	// A slow peer costs the client its own timeout_ms, not the front's call
	// budget, and the connection — an answer may still arrive on it — is
	// dropped.
	t.Run("slow peer", func(t *testing.T) {
		peer := newScriptedPeer(t, "127.0.0.1:0", func(int, *http.Request, []byte) peerAnswer {
			return peerAnswer{stall: true}
		})
		fr, link := linkFront(t, peer.addr(), 30*time.Second)
		start := time.Now()
		rec := frontOverHTTP(t, fr)("/v1/extract", `{"site":"shop","timeout_ms":50,"page":{"html":"<b>x</b>"}}`)
		if took := time.Since(start); rec.Code != http.StatusServiceUnavailable || took < 50*time.Millisecond || took > 5*time.Second {
			t.Fatalf("answered %d after %v, want 503 once timeout_ms (50) has passed: %s", rec.Code, took, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "timeout") {
			t.Fatalf("the 503 does not say it was a timeout: %s", rec.Body)
		}
		<-peer.hungUp
		if link.idleCount() != 0 {
			t.Fatal("the timed-out connection was pooled")
		}
	})
}

// TestLinkMidBodyFailureAbortsTheResponse: once the status is out a broken
// relay cannot become a 503, and must not end as if the answer were whole:
// the client's read fails.
func TestLinkMidBodyFailureAbortsTheResponse(t *testing.T) {
	big := strings.Repeat("x", 3*linkReadBuf)
	for name, raw := range map[string]string{
		"length-delimited": "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(2*len(big)) + "\r\n\r\n" + big,
		"chunked":          "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + strconv.FormatInt(int64(2*len(big)), 16) + "\r\n" + big,
		"bad chunk size":   "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\nzz\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			peer := newScriptedPeer(t, "127.0.0.1:0", func(int, *http.Request, []byte) peerAnswer {
				return peerAnswer{raw: raw, close: true}
			})
			fr, link := linkFront(t, peer.addr(), time.Second)
			front := newLoopback(fr.Handler())
			defer front.Close()
			resp, err := http.Post(front.URL+"/v1/extract", "application/json", strings.NewReader(extractBody))
			if err == nil {
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if err == nil {
				t.Fatal("the client read a broken relay to a clean end")
			}
			if link.idleCount() != 0 {
				t.Fatal("the broken connection was pooled")
			}
		})
	}
}

// TestForwardHonoursItsCaller: a forwarded learn, repair, promote or extract
// lives no longer than the client's request. The client hangs up while the
// peer stalls; the front's handler is back within 100 ms, the peer's
// connection is closed, not pooled, and no goroutine stays behind.
func TestForwardHonoursItsCaller(t *testing.T) {
	for _, path := range []string{"/v1/repair", "/v1/learn", "/v1/promote", "/v1/extract"} {
		t.Run(path, func(t *testing.T) {
			leakcheck.Check(t)
			got := make(chan struct{}, 1)
			peer := newScriptedPeer(t, "127.0.0.1:0", func(int, *http.Request, []byte) peerAnswer {
				got <- struct{}{}
				return peerAnswer{stall: true}
			})
			fr, link := linkFront(t, peer.addr(), 30*time.Second)
			returned := make(chan time.Time, 1)
			front := newLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fr.Handler().ServeHTTP(w, r)
				returned <- time.Now()
			}))
			defer front.Close()

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+path,
				strings.NewReader(`{"site":"shop","version":2,"pages":["<p>a</p>","<p>b</p>"],"page":{"html":"<b>x</b>"}}`))
			if err != nil {
				t.Fatal(err)
			}
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			errc := make(chan error, 1)
			go func() {
				resp, err := client.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				errc <- err
			}()
			<-got // the request is at the peer, which will never answer
			cancel()
			hungUp := time.Now()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("client: %v, want its own cancellation", err)
			}
			select {
			case at := <-returned:
				if late := at.Sub(hungUp); late > 100*time.Millisecond {
					t.Fatalf("the front's handler outlived its client by %v", late)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the front's handler is still forwarding 5 s after its client hung up")
			}
			<-peer.hungUp
			if link.idleCount() != 0 {
				t.Fatal("the aborted connection was pooled")
			}
		})
	}
}

// TestForwardRelaysTheClientsBytes: what reaches the peer on the three
// body-carrying routes is the body the client sent — not a re-encoding of
// what the front understood of it — under the ring fingerprint.
func TestForwardRelaysTheClientsBytes(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	peer := newScriptedPeer(t, "127.0.0.1:0", func(_ int, r *http.Request, body []byte) peerAnswer {
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s %s %s %s %s", r.Method, r.URL.Path, r.Header.Get("Content-Type"), r.Header.Get(RingHashHeader), body))
		mu.Unlock()
		return peerAnswer{raw: okAnswer("ok\n")}
	})
	fr, _ := linkFront(t, peer.addr(), time.Second)
	body := "{ \"Pages\" : [\"<p>a \\u003c b</p>\", \"<p>\xff</p>\"],\n \"unknown\": [1, {\"x\": null}], \"SITE\": \"sh\\u006fp\", \"timeout_ms\": 900 }"
	for _, path := range peekRoutes {
		if rec := postTo(fr.Handler(), path, body); rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for i, path := range peekRoutes {
		want := fmt.Sprintf("POST %s application/json %s %s", path, fr.ring.Fingerprint(), body)
		if seen[i] != want {
			t.Fatalf("the peer received\n %s\nwant\n %s", seen[i], want)
		}
	}
}

// TestLinkUnderChurn hammers one front from 64 goroutines while its two
// peers close connections at random: announced (Connection: close),
// unannounced after an answer (the stale connection the probe exists for),
// and in place of an answer. Every request ends as the peer's 200 carrying
// that request's own token, or as a 503 naming the shard; no token reaches
// a peer twice. Run under -race -count=10 in CI.
func TestLinkUnderChurn(t *testing.T) {
	leakcheck.Check(t)
	var seen sync.Map // token → true, across both peers
	var dupes atomic.Int64
	script := func(seed int64) func(int, *http.Request, []byte) peerAnswer {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		return func(_ int, _ *http.Request, body []byte) peerAnswer {
			if _, again := seen.LoadOrStore(string(body), true); again {
				dupes.Add(1)
			}
			mu.Lock()
			roll := rng.Intn(20)
			mu.Unlock()
			echo := string(body) + "\n"
			switch roll {
			case 0:
				return peerAnswer{raw: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: " + strconv.Itoa(len(echo)) + "\r\n\r\n" + echo, close: true}
			case 1:
				return peerAnswer{raw: okAnswer(echo), close: true}
			case 2:
				return peerAnswer{close: true}
			case 3:
				return peerAnswer{raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
					strconv.FormatInt(int64(len(echo)), 16) + "\r\n" + echo + "\r\n0\r\n\r\n"}
			}
			return peerAnswer{raw: okAnswer(echo)}
		}
	}
	ring := shard.NewRing(2, 64)
	peers := []*scriptedPeer{
		newScriptedPeer(t, "127.0.0.1:0", script(1)),
		newScriptedPeer(t, "127.0.0.1:0", script(2)),
	}
	fr, err := NewForwardRouter(ring, []string{peers[0].addr(), peers[1].addr()}, ForwardOptions{
		SkipHandshake: true, RequestTimeout: 5 * time.Second, Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fr.Handler()
	var ok, unavailable atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				body := fmt.Sprintf(`{"site":"site-%d","page":{"id":"g%d-i%d","html":"<b>x</b>"}}`, (g+i)%16, g, i)
				rec := postTo(h, "/v1/extract", body)
				switch {
				case rec.Code == 200 && rec.Body.String() == body+"\n":
					ok.Add(1)
				case rec.Code == 503 && bytes.Contains(rec.Body.Bytes(), []byte(ErrShardUnavailable.Error()+": shard ")):
					unavailable.Add(1)
				default:
					t.Errorf("request %s answered %d %s", body, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if dupes.Load() != 0 {
		t.Fatalf("%d extracts reached a peer twice", dupes.Load())
	}
	// One answer in twenty is withheld and one in twenty strands whoever
	// reuses the connection first; anything near half is a broken pool.
	if ok.Load() < 3*unavailable.Load() {
		t.Fatalf("%d answered, %d unavailable", ok.Load(), unavailable.Load())
	}
}

// forwardAllocBudget is what one forwarded extract may allocate over the
// same request through the in-process router: the link's share — the
// relayed header values and the context's AfterFunc — and the shard's
// second decode of the body. The shard's HTTPServer adds nothing on a
// pooled connection. Measured: 6.
const forwardAllocBudget = 6

// TestForwardExtractAllocBudget gates the forward hop's allocations the way
// the recorded benchmark counts them (serve.forward_allocs): process-wide
// mallocs of the front's handler over a loopback shard, less those of the
// in-process router's for the same request.
func TestForwardExtractAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	ring := shard.NewRing(1, 64)
	newShard := func() *Server {
		st := store.New()
		if _, err := st.Put("shop", &lr.Compiled{Left: "<b>", Right: "</b>"}, store.Meta{}); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Dispatcher: NewDispatcher(st, Options{}), Ring: ring})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	local, err := NewShardRouter(ring, func(int) (*Server, error) { return newShard(), nil })
	if err != nil {
		t.Fatal(err)
	}
	hs := newLoopback(newShard().Handler())
	defer hs.Close()
	fwd, err := NewForwardRouter(ring, []string{hs.addr()}, ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}

	body := []byte(`{"site":"shop","page":{"id":"p1","html":"<html><body>` +
		strings.Repeat(`<p class=\"row\"><b>cell</b></p>`, 64) + `</body></html>"}}`)
	allocs := func(h http.Handler) float64 {
		var rd bytes.Reader
		req := httptest.NewRequest(http.MethodPost, "/v1/extract", nil)
		req.ContentLength = int64(len(body))
		rec := httptest.NewRecorder()
		return testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			req.Body = struct {
				*bytes.Reader
				io.Closer
			}{&rd, nil}
			clear(rec.Header())
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"cell"`)) {
				t.Fatalf("answered %d %s", rec.Code, rec.Body)
			}
		})
	}
	inProcess, forwarded := allocs(local.Handler()), allocs(fwd.Handler())
	if hop := forwarded - inProcess; hop > forwardAllocBudget {
		t.Fatalf("the forward hop allocates %.0f times a request (%.0f forwarded, %.0f in process), budget is %d",
			hop, forwarded, inProcess, forwardAllocBudget)
	} else {
		t.Logf("forward hop: %.0f allocs a request (%.0f forwarded, %.0f in process)", hop, forwarded, inProcess)
	}
}
