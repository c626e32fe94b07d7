package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"autowrap/internal/lr"
	"autowrap/internal/store"
	"autowrap/internal/testutil/leakcheck"
	"autowrap/internal/testutil/race"
)

// loopback is servetest.NewServer for this package's own tests, which
// cannot import servetest (it imports this package): h behind an
// HTTPServer on a loopback port.
type loopback struct {
	URL    string
	srv    *HTTPServer
	served chan struct{}
}

func newLoopback(h http.Handler) *loopback { return newLoopbackLog(h, log.New(io.Discard, "", 0)) }

func newLoopbackLog(h http.Handler, lg *log.Logger) *loopback {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	l := &loopback{URL: "http://" + ln.Addr().String(), srv: NewHTTPServer(h, lg), served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.srv.Serve(ln)
	}()
	return l
}

func (l *loopback) addr() string { return strings.TrimPrefix(l.URL, "http://") }

// Close stops the server and waits for its goroutines, then closes
// http.DefaultTransport's idle connections, as servetest's does.
func (l *loopback) Close() {
	l.srv.Close()
	<-l.served
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// syncLog is a log destination a test reads while the server writes it.
type syncLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// shopServer is a node over one LR site, "shop".
func shopServer(t testing.TB) *Server {
	t.Helper()
	st := store.New()
	if _, err := st.Put("shop", &lr.Compiled{Left: "<b>", Right: "</b>"}, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Dispatcher: NewDispatcher(st, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// matchHandler is the handler both servers run in TestServerMatchesNetHTTP:
// the node's routes, plus /echo… (what the handler was given, in a form
// both servers must agree on), /big (a body past the hold-back, no length
// declared) and /panic and /abort.
func matchHandler(t *testing.T) http.Handler {
	routes := shopServer(t).Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/echo"):
			body, err := io.ReadAll(r.Body)
			var keys []string
			for k, v := range r.Header {
				keys = append(keys, fmt.Sprintf("%s=%q", k, v))
			}
			sort.Strings(keys)
			fmt.Fprintf(w, "%s\n%s %s %s q=%q force=%v host=%q len=%d te=%v close=%v failed=%v\n%s\n",
				body, r.Method, r.RequestURI, r.URL.Path, r.URL.RawQuery, r.URL.ForceQuery, r.Host,
				r.ContentLength, r.TransferEncoding, r.Close, err != nil, strings.Join(keys, " "))
		case r.URL.Path == "/big":
			for i := 0; i < 3; i++ {
				io.WriteString(w, strings.Repeat(strconv.Itoa(i), 2000))
			}
		case r.URL.Path == "/panic":
			panic("boom")
		case r.URL.Path == "/abort":
			io.WriteString(w, strings.Repeat("x", 4000))
			panic(http.ErrAbortHandler)
		default:
			routes.ServeHTTP(w, r)
		}
	})
}

// step is one write of a raw exchange and how many responses it is owed.
type step struct {
	send       string
	answers    int
	closeWrite bool // then half-close the connection
}

// answer is a response as a client reads it.
type answer struct {
	Proto, Status    string
	Header           http.Header
	Date             bool
	Body             string
	ContentLength    int64
	TransferEncoding []string
	Close            bool
}

// exchange sends the steps to addr on one connection, reading each step's
// answers before the next step goes out, and reports the answers and
// whether the server then closed the connection.
func exchange(addr string, steps []step) ([]answer, string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, "dial error: " + err.Error()
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var out []answer
	for _, s := range steps {
		wrote := make(chan struct{})
		go func() { // a server that stops reading must not stall the test
			defer close(wrote)
			_, _ = io.WriteString(conn, s.send)
			if s.closeWrite {
				_ = conn.(*net.TCPConn).CloseWrite()
			}
		}()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var req *http.Request
		if strings.HasPrefix(s.send, "HEAD ") {
			req = &http.Request{Method: http.MethodHead}
		}
		for i := 0; i < s.answers; i++ {
			resp, err := http.ReadResponse(br, req)
			if err != nil {
				return out, "read error: " + err.Error()
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return out, "body error: " + err.Error()
			}
			a := answer{Proto: resp.Proto, Status: resp.Status, Header: resp.Header.Clone(), Body: string(body),
				ContentLength: resp.ContentLength, TransferEncoding: resp.TransferEncoding, Close: resp.Close}
			_, a.Date = a.Header["Date"]
			delete(a.Header, "Date")
			out = append(out, a)
		}
		if s.answers > 0 {
			<-wrote
		}
	}
	// A connection that is to stay open is given 100 ms to close; one
	// that said it would close, longer than net/http lingers before it does.
	wait := 100 * time.Millisecond
	if len(out) > 0 && out[len(out)-1].Close {
		wait = 2 * time.Second
	}
	conn.SetReadDeadline(time.Now().Add(wait))
	if _, err := br.ReadByte(); err == nil {
		return out, "extra bytes"
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return out, "open"
	}
	return out, "closed"
}

// summary is "status status … open|closed".
func summary(as []answer, end string) string {
	var b strings.Builder
	for _, a := range as {
		b.WriteString(a.Status[:3] + " ")
	}
	return b.String() + end
}

// TestServerMatchesNetHTTP sends the same raw bytes to the same handler
// behind HTTPServer and behind net/http's server: the status lines, the
// bodies, the headers a client reads (Date by presence) and whether the
// connection stays open must agree. Two rows differ on purpose — a
// Content-Length beside a Transfer-Encoding, and obs-fold line folding,
// which net/http reads and HTTPServer refuses as RFC 9112 lets a server —
// and say so.
func TestServerMatchesNetHTTP(t *testing.T) {
	leakcheck.Check(t)
	h := matchHandler(t)
	ours := newLoopback(h)
	t.Cleanup(ours.Close) // after the parallel rows
	ref := httptest.NewUnstartedServer(h)
	ref.Config.ErrorLog = log.New(io.Discard, "", 0)
	ref.Start()
	t.Cleanup(ref.Close)
	refAddr := strings.TrimPrefix(ref.URL, "http://")

	get := func(target string, fields ...string) string {
		return "GET " + target + " HTTP/1.1\r\nHost: example.com\r\n" + strings.Join(fields, "") + "\r\n"
	}
	post := func(target, body string, fields ...string) string {
		return "POST " + target + " HTTP/1.1\r\nHost: example.com\r\nContent-Length: " + strconv.Itoa(len(body)) +
			"\r\n" + strings.Join(fields, "") + "\r\n" + body
	}
	one := func(raw string) []step { return []step{{send: raw, answers: 1}} }
	two := func(raw string) []step { return []step{{send: raw, answers: 2}} }
	big := strings.Repeat("b", 100<<10)
	huge := strings.Repeat("h", 300<<10)

	for _, c := range []struct {
		name  string
		steps []step
		want  string
		// netHTTP, when set, is what net/http's server answers instead.
		netHTTP string
	}{
		{name: "keep-alive", steps: []step{{send: get("/echo"), answers: 1}, {send: get("/v1/jobs"), answers: 1}}, want: "200 200 open"},
		{name: "pipelined", steps: []step{{send: get("/echo?a=1") + post("/echo", "x=1") + get("/healthz/x"), answers: 3}}, want: "200 200 404 open"},
		{name: "HTTP/1.0", steps: one("GET /echo HTTP/1.0\r\n\r\n"), want: "200 closed"},
		{name: "HTTP/1.0 keep-alive", steps: []step{{send: "GET /echo HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", answers: 1}, {send: "POST /echo HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhi", answers: 1}}, want: "200 200 open"},
		{name: "HTTP/1.0 keep-alive, a body of no declared length", steps: one("GET /big HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"), want: "200 closed"},
		{name: "HTTP/1.0 POST without a length", steps: one("POST /echo HTTP/1.0\r\n\r\n"), want: "200 closed"},
		{name: "Connection: close", steps: one(get("/echo", "Connection: close\r\n")), want: "200 closed"},
		{name: "Connection: close among tokens", steps: one(get("/echo", "Connection: Upgrade, CLOSE\r\n")), want: "200 closed"},
		{name: "Expect: 100-continue", steps: []step{
			{send: "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", answers: 1},
			{send: "hello", answers: 1}}, want: "100 200 open"},
		{name: "Expect: 100-continue, body never read", steps: []step{
			{send: "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", answers: 1},
			{send: "hello"}}, want: "405 closed"}, // the client sends the body anyway: net/http waits for it to close
		{name: "Expect: 100-continue from HTTP/1.0", steps: one("POST /echo HTTP/1.0\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nhi"), want: "200 closed"},
		{name: "an expectation not met", steps: one(post("/echo", "hi", "Expect: the-unexpected\r\n")), want: "417 closed"},
		{name: "chunked body", steps: two("POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nTrailer-Field: t\r\n\r\n" + get("/echo")), want: "200 200 open"},
		{name: "chunked body, bad size", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n"), want: "200 closed"},
		{name: "head over 1 MB", steps: one("GET /echo HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 2<<20) + "\r\n\r\n"), want: "431 closed"},
		{name: "head just under 1 MB", steps: one(get("/v1/jobs", "X-Big: "+strings.Repeat("a", 1<<20-200)+"\r\n")), want: "200 open"},
		{name: "Content-Length with Transfer-Encoding", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"),
			want: "400 closed", netHTTP: "200 open"},
		{name: "two different Content-Lengths", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"), want: "400 closed"},
		{name: "the same Content-Length twice", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"), want: "200 open"},
		{name: "bad Content-Length", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: +3\r\n\r\nabc"), want: "400 closed"},
		{name: "obs-fold", steps: one("GET /echo HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n  b\r\n\r\n"), want: "400 closed", netHTTP: "200 open"},
		{name: "a head that opens with whitespace", steps: one("GET /echo HTTP/1.1\r\n Host: x\r\n\r\n"), want: "400 closed"},
		{name: "bad method token", steps: one("G(T /echo HTTP/1.1\r\nHost: x\r\n\r\n"), want: "400 closed"},
		{name: "malformed request line", steps: one("GET  /echo HTTP/1.1\r\nHost: x\r\n\r\n"), want: "400 closed"},
		{name: "HTTP/2.0 request line", steps: one("GET /echo HTTP/2.0\r\nHost: x\r\n\r\n"), want: "505 closed"},
		{name: "HTTP/1.1 without Host", steps: one("GET /echo HTTP/1.1\r\n\r\n"), want: "400 closed"},
		{name: "two Hosts", steps: one("GET /echo HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"), want: "400 closed"},
		{name: "malformed Host", steps: one("GET /echo HTTP/1.1\r\nHost: a b{}\r\n\r\n"), want: "400 closed"},
		{name: "HTTP/1.0 without Host", steps: one("GET /echo HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"), want: "200 open"},
		{name: "Host from an absolute target", steps: one("GET http://a.example/echo/%7Ex?q=1 HTTP/1.1\r\nHost: b.example\r\n\r\n"), want: "200 open"},
		{name: "escaped path and empty query", steps: one(get("/echo/a%20b/c?")), want: "200 open"},
		{name: "a path url.URL keeps raw", steps: one(get("/echo/(x)!*;a=b,c")), want: "200 open"},
		{name: "a control byte in the target", steps: one("GET /echo\x01 HTTP/1.1\r\nHost: x\r\n\r\n"), want: "400 closed"},
		{name: "a field name with a space", steps: one(get("/echo", "Bad Name: v\r\n")), want: "400 closed"},
		{name: "a field without a colon", steps: one(get("/echo", "NoColon\r\n")), want: "400 closed"},
		{name: "a control byte in a value", steps: one(get("/echo", "X-A: a\x01b\r\n")), want: "400 closed"},
		{name: "fields folded to canonical names", steps: one("GET /echo HTTP/1.1\r\nhost: x\r\nx-ring-hash: abc\r\nPRAGMA: no-cache\r\nX-Dup: 1\r\nx-dup:  2 \r\n\r\n"), want: "200 open"},
		{name: "bare LF line ends", steps: one("GET /echo HTTP/1.1\nHost: x\n\n"), want: "200 open"},
		{name: "transfer coding gzip", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n"), want: "501 closed"},
		{name: "two transfer codings", steps: one("POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n"), want: "501 closed"},
		{name: "transfer coding from HTTP/1.0", steps: one("POST /echo HTTP/1.0\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nhi"), want: "200 closed"},
		{name: "100 KB left unread", steps: two(post("/v1/jobs", big) + get("/v1/jobs")), want: "405 200 open"},
		{name: "300 KB left unread", steps: one(post("/v1/jobs", huge)), want: "405 closed"},
		{name: "a chunked body left unread", steps: two("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n" + get("/v1/jobs")), want: "405 200 open"},
		{name: "stray CRLF after a POST", steps: two(post("/echo", "x") + "\r\n" + get("/echo")), want: "200 200 open"},
		{name: "an empty line first", steps: one("\r\n" + get("/echo")), want: "400 closed"},
		{name: "a head cut short", steps: []step{{send: "GET /echo HTTP/1.1\r\nHost: x\r\n", answers: 1, closeWrite: true}}, want: "400 closed"},
		{name: "a body cut short", steps: []step{{send: post("/echo", "abcdef")[:64], answers: 1, closeWrite: true}}, want: "200 closed"},
		{name: "sniffed HTML", steps: one(post("/echo", "<!DOCTYPE html><html><body>x</body></html>")), want: "200 open"},
		{name: "a body past the hold-back, chunked", steps: one(get("/big")), want: "200 open"},
		{name: "404", steps: one(get("/nowhere")), want: "404 open"},
		{name: "405 with Allow", steps: one(get("/v1/extract")), want: "405 open"},
		{name: "HEAD", steps: one("HEAD /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n"), want: "405 open"},
		{name: "audit with a query", steps: one(get("/v1/audit?n=3")), want: "200 open"},
		{name: "extract, unknown site", steps: one(post("/v1/extract", `{"site":"nosuch","page":{"html":"<b>x</b>"}}`)), want: "404 open"},
		{name: "extract, bad JSON", steps: one(post("/v1/extract", `{"site":`)), want: "400 open"},
		{name: "a panicking handler", steps: one(get("/panic")), want: "read error: unexpected EOF"},
		{name: "an aborted handler", steps: one(get("/abort")), want: "body error: unexpected EOF"},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var ref []answer
			var refEnd string
			done := make(chan struct{})
			go func() {
				defer close(done)
				ref, refEnd = exchange(refAddr, c.steps)
			}()
			got, gotEnd := exchange(ours.addr(), c.steps)
			<-done
			if strings.Contains(gotEnd, "error") {
				gotEnd = strings.TrimSpace(gotEnd)
				if gotEnd != c.want || refEnd != gotEnd {
					t.Fatalf("ended with %q, net/http with %q; want %q", gotEnd, refEnd, c.want)
				}
				return
			}
			if s := summary(got, gotEnd); s != c.want {
				t.Fatalf("answered %q, want %q: %+v", s, c.want, got)
			}
			if c.netHTTP != "" {
				if s := summary(ref, refEnd); s != c.netHTTP {
					t.Fatalf("net/http answered %q, want %q: %+v", s, c.netHTTP, ref)
				}
				return
			}
			if gotEnd != refEnd || !reflect.DeepEqual(got, ref) {
				t.Fatalf("answers differ (connection %s, net/http's %s)\n ours     %+v\n net/http %+v", gotEnd, refEnd, got, ref)
			}
		})
	}
}

// TestServerSweepsSlowHeadsAndIdleConnections: a client that sends part of
// a head and stops is disconnected headTimeout after its first byte, with
// one log line; an idle keep-alive connection after idleTimeout, silently;
// a connection serving a request never. The sweep is driven here with the
// time it would read at those moments.
func TestServerSweepsSlowHeadsAndIdleConnections(t *testing.T) {
	leakcheck.Check(t)
	var logged syncLog
	release := make(chan struct{})
	srv := newLoopbackLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-release
		}
	}), log.New(&logged, "", 0))
	defer srv.Close()
	dial := func(send string) (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", srv.addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		io.WriteString(c, send)
		return c, bufio.NewReader(c)
	}
	slowHead, _ := dial("POST /v1/extract HTTP/1.1\r\nHost: x\r\n")
	idle, idleR := dial("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, err := http.ReadResponse(idleR, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("the idle connection's request: %v %v", resp, err)
	}
	busy, _ := dial("GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	waitFor(t, "three connections, one in each state", func() bool {
		var states [4]int
		srv.srv.mu.Lock()
		for c := range srv.srv.conns {
			states[c.state.Load()]++
		}
		srv.srv.mu.Unlock()
		return states == [4]int{stateIdle: 1, stateHead: 1, stateActive: 1}
	})
	closed := func(c net.Conn) bool {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := c.Read(make([]byte, 1))
		return err == io.EOF
	}
	now := srv.srv.clock.Load()
	srv.srv.sweepConns(now + int64(headTimeout))
	srv.srv.sweepConns(now + int64(headTimeout+sweepEvery))
	if !closed(slowHead) {
		t.Fatal("a head still incomplete after headTimeout kept its connection")
	}
	if got := strings.Count(logged.String(), "request head not complete"); got != 1 {
		t.Fatalf("logged %d lines for the slow head, want 1:\n%s", got, logged.String())
	}
	srv.srv.sweepConns(now + int64(idleTimeout))
	srv.srv.sweepConns(now + int64(idleTimeout+sweepEvery))
	if !closed(idle) {
		t.Fatal("an idle connection outlived idleTimeout")
	}
	if got := strings.Count(logged.String(), "\n"); got != 1 {
		t.Fatalf("the idle close logged: %s", logged.String())
	}
	close(release)
	if resp, err := http.ReadResponse(bufio.NewReader(busy), nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("the busy connection was cut: %v %v", resp, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServerHandlerPanics: a panicking handler's connection is dropped and
// the panic logged, stack and all; http.ErrAbortHandler drops it without a
// word. The server keeps serving.
func TestServerHandlerPanics(t *testing.T) {
	leakcheck.Check(t)
	var logged syncLog
	srv := newLoopbackLog(matchHandler(t), log.New(&logged, "", 0))
	defer srv.Close()
	for _, path := range []string{"/panic", "/abort"} {
		resp, err := http.Get(srv.URL + path)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			t.Fatalf("%s: the client read a whole response", path)
		}
	}
	if l := logged.String(); strings.Count(l, "serve: panic serving GET /panic") != 1 || !strings.Contains(l, "boom") ||
		!strings.Contains(l, "goroutine ") || strings.Contains(l, "/abort") {
		t.Fatalf("logged:\n%s", l)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("after the panics: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestServerShutdown: Shutdown closes the listener and the idle
// connections at once, lets a request in flight finish — its response says
// Connection: close — and only then returns; Serve returns
// http.ErrServerClosed.
func TestServerShutdown(t *testing.T) {
	leakcheck.Check(t)
	started, release := make(chan struct{}), make(chan struct{})
	srv := newLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
		}
		io.WriteString(w, "done")
	}))
	defer srv.Close()
	idle, err := net.Dial("tcp", srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := net.Dial("tcp", srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-started
	shut := make(chan error, 1)
	go func() { shut <- srv.srv.Shutdown(t.Context()) }()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the idle connection: %v, want it closed", err)
	}
	if _, err := net.Dial("tcp", srv.addr()); err == nil {
		t.Fatal("the listener still accepts")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil || resp.StatusCode != 200 || !resp.Close {
		t.Fatalf("the request in flight: %+v %v, want a 200 that closes", resp, err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-srv.served
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

// serveAllocBudget is what one small extract costs in allocations, server
// and handler together, as TestServeExtractAllocBudget counts them. All 13
// are the handler's: the deadline's context and timer (4), writeRawJSON's
// header values (2), the site copy, the Extraction, its Results and what
// ExtractOne returns. The connection loop adds none once a keep-alive
// client repeats its header lines — a new Content-Length value would be
// one string.
const serveAllocBudget = 13

// TestServeExtractAllocBudget counts the allocations of one small extract
// through HTTPServer on loopback: process-wide mallocs per request, from a
// client that allocates nothing itself (prebuilt request bytes, a fixed
// response buffer) on one keep-alive connection.
func TestServeExtractAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector bypasses sync.Pool; budgets describe production builds")
	}
	srv := newLoopback(shopServer(t).Handler())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"site":"shop","page":{"id":"p1","html":"<html><body>` +
		strings.Repeat(`<p class=\"row\"><b>cell</b></p>`, 16) + `</body></html>"}}`
	req := []byte("POST /v1/extract HTTP/1.1\r\nHost: shard\r\nUser-Agent: test\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	buf := make([]byte, 64<<10)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			k, err := conn.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += k
			if head := bytes.Index(buf[:n], []byte("\r\n\r\n")); head > 0 {
				i := bytes.Index(buf[:head], []byte("Content-Length: "))
				if i < 0 {
					t.Fatalf("no Content-Length: %q", buf[:n])
				}
				j := i + len("Content-Length: ")
				cl := 0
				for ; buf[j] >= '0' && buf[j] <= '9'; j++ {
					cl = 10*cl + int(buf[j]-'0')
				}
				if n == head+4+cl {
					break
				}
			}
		}
		if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.Contains(buf[:n], []byte(`"cell"`)) {
			t.Fatalf("answered %q", buf[:n])
		}
	}
	for i := 0; i < 50; i++ { // pools, the connection's buffers
		roundTrip()
	}
	if got := testing.AllocsPerRun(500, roundTrip); got > serveAllocBudget {
		t.Fatalf("one small extract allocates %.1f times, budget is %d", got, serveAllocBudget)
	} else {
		t.Logf("one small extract: %.1f allocations", got)
	}
}

// FuzzRequestHead: whatever bytes arrive, the head reader returns — no
// panic, no hang — and a head it accepts is the request http.ReadRequest
// reads from the same bytes: method, target, path, query, Host, fields
// (Host aside, which a server moves to r.Host) and body length.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /v1/extract HTTP/1.1\r\nHost: localhost:8080\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
		"GET /v1/audit?n=3 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n0\r\n\r\n",
		"GET http://a.example/p%20q?x#f HTTP/1.1\r\nHost: b\r\nPragma: no-cache\r\nx-dup: 1\r\nX-DUP: 2\r\n\r\n",
		"GET /a?b? HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /\x80 HTTP/1.1\nHost: x\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h reqHead
		h.init(t.Context(), "client")
		err := h.read(bufio.NewReaderSize(bytes.NewReader(data), 4<<10))
		if err != nil {
			return
		}
		ref, rerr := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if rerr != nil {
			t.Fatalf("accepted a head http.ReadRequest refuses (%v): %q", rerr, data)
		}
		got := h.req
		if got.Method != ref.Method || got.RequestURI != ref.RequestURI || got.URL.String() != ref.URL.String() ||
			got.URL.Path != ref.URL.Path || got.URL.RawQuery != ref.URL.RawQuery || got.Host != ref.Host ||
			got.ContentLength != ref.ContentLength || got.Close != ref.Close || got.Proto != ref.Proto {
			t.Fatalf("%q:\n got %s %s %+v host %q len %d close %v\nwant %s %s %+v host %q len %d close %v", data,
				got.Method, got.RequestURI, *got.URL, got.Host, got.ContentLength, got.Close,
				ref.Method, ref.RequestURI, *ref.URL, ref.Host, ref.ContentLength, ref.Close)
		}
		delete(ref.Header, "Host")
		if !reflect.DeepEqual(map[string][]string(got.Header), map[string][]string(ref.Header)) {
			t.Fatalf("%q: fields\n got %q\nwant %q", data, got.Header, ref.Header)
		}
	})
}

// TestServerUnderChurn runs 16 clients against handlers that outlive
// watchAfter, so that hang-up watches start, end and are aborted all the
// while: every client that waits reads its own answer, every client that
// hangs up mid-request has its handler's context cancelled, and nothing is
// left running. Run under -race -count=10 in CI.
func TestServerUnderChurn(t *testing.T) {
	leakcheck.Check(t)
	var cancelled, served sync.WaitGroup
	srv := newLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/hangup" {
			defer cancelled.Done()
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
				t.Errorf("%s: the handler outlived its client", body)
			}
			return
		}
		defer served.Done()
		d, _ := strconv.Atoi(r.URL.Query().Get("us"))
		time.Sleep(time.Duration(d) * time.Microsecond)
		w.Write(body)
	}))
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for i := 0; i < 40; i++ {
				token := fmt.Sprintf("g%d-i%d", g, i)
				if i == 39 && g%4 == 0 {
					cancelled.Add(1)
					fmt.Fprintf(conn, "POST /hangup HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(token), token)
					time.Sleep(3 * time.Millisecond) // past watchAfter: the watch is on
					return
				}
				served.Add(1)
				fmt.Fprintf(conn, "POST /echo?us=%d HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", (g*7+i*13)%2500, len(token), token)
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					t.Errorf("%s: %v", token, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				if err != nil || string(got) != token {
					t.Errorf("%s: answered %q, %v", token, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cancelled.Wait()
	served.Wait()
}
