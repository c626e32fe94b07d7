// The HTTP/1.1 server every serving role runs. It drives an http.Handler —
// Server.Handler, ShardRouter.Handler — over connections of its own: one
// goroutine and one 4 KB reader a connection, a request head parsed into a
// Request, Header and URL the connection reuses, and a response that leaves
// in one write. What net/http's server spends a request around the handler
// (a goroutine for a background read, the read's abort, a header map, a URL
// parse, a chunk writer) this one spends only where a request needs it.
//
// Rules of the server:
//
//   - A request head is what net/http's server accepts, less three things
//     RFC 9112 lets a server refuse: obs-fold line folding, a Content-Length
//     beside a Transfer-Encoding, and (as net/http) any transfer coding but
//     chunked. Malformed heads get net/http's answers, byte for byte.
//   - The Request, its Header and URL, the ResponseWriter and the
//     ResponseWriter's Header belong to the connection: a handler must not
//     keep them past its return.
//   - r.Context() is the connection's: it is cancelled when the client is
//     found gone and when the connection ends. A hang-up is looked for only
//     while a request runs past watchAfter, and only once its body is read.
//   - A head must be complete within headTimeout of its first byte and an
//     idle connection closes after idleTimeout; one sweep a second enforces
//     both from timestamps the connections keep.
//   - A handler that panics drops its connection, and the panic is logged;
//     http.ErrAbortHandler drops it silently.

package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// maxHeadBytes caps a request head, as net/http's DefaultMaxHeaderBytes
	// plus the 4 KB it allows on top.
	maxHeadBytes = 1<<20 + 4096
	// headTimeout is how long a request head may take from its first byte;
	// idleTimeout how long a connection may wait for one. idleTimeout is
	// longer than the peer link's linkIdleTimeout, so a front's pooled
	// connection is never closed under it.
	headTimeout = 10 * time.Second
	idleTimeout = 2 * time.Minute
	// watchAfter is how long a request runs before its client's connection
	// is watched for a hang-up.
	watchAfter = time.Millisecond
	// sweepEvery is the sweep's period, and so how stale the clock a
	// connection stamps its state with may be.
	sweepEvery = time.Second
	// maxDrain is how much of a body the handler left unread is read and
	// dropped to keep the connection; beyond it the connection closes.
	maxDrain = 256 << 10
	// bufferBeforeChunking is how much of a body without a declared length
	// is held back to answer with a Content-Length (net/http's value).
	bufferBeforeChunking = 2048
)

// HTTPServer serves an http.Handler over HTTP/1.1. Build one with
// NewHTTPServer, run it with Serve or ListenAndServe, stop it with Shutdown
// (graceful) or Close.
type HTTPServer struct {
	handler http.Handler
	log     *log.Logger
	base    context.Context // every connection's context derives from it

	// clock is the sweep's coarse time, in Unix nanoseconds, that
	// connections stamp their state changes with; date the Date header
	// value of that moment.
	clock atomic.Int64
	date  atomic.Pointer[[len(http.TimeFormat)]byte]

	shutting atomic.Bool
	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[*srvConn]struct{}
	gone     chan struct{} // a connection ended; Shutdown rechecks
	sweeping bool
	stop     chan struct{} // closed to stop the sweep
	swept    chan struct{} // closed when the sweep has stopped
	connWG   sync.WaitGroup
}

// serverKey marks a connection context as one of HTTPServer's.
type serverKey struct{}

// NewHTTPServer serves h, logging to lg (log.Default() when nil).
func NewHTTPServer(h http.Handler, lg *log.Logger) *HTTPServer {
	if lg == nil {
		lg = log.Default()
	}
	s := &HTTPServer{
		handler: h,
		log:     lg,
		lns:     map[net.Listener]struct{}{},
		conns:   map[*srvConn]struct{}{},
		gone:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		swept:   make(chan struct{}),
	}
	s.base = context.WithValue(context.Background(), serverKey{}, s)
	s.tick(time.Now())
	return s
}

// abortable reports whether r is being served by an HTTPServer, which drops
// the connection of a handler that panics with http.ErrAbortHandler: the
// way a handler ends a response it can no longer complete so that the
// client's read fails. A handler driven directly, with no server, cannot be
// aborted that way and just returns.
func abortable(r *http.Request) bool { return r.Context().Value(serverKey{}) != nil }

// ListenAndServe listens on the TCP address addr and serves it.
func (s *HTTPServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close, and then returns
// http.ErrServerClosed; any other return is the listener's error.
func (s *HTTPServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutting.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	if !s.sweeping {
		s.sweeping = true
		go s.sweep()
	}
	s.mu.Unlock()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.shutting.Load() {
				return http.ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of descriptors and the like: wait it out, as net/http does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.log.Printf("serve: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := s.newConn(nc)
		s.mu.Lock()
		if s.shutting.Load() {
			s.mu.Unlock()
			nc.Close()
			return http.ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops the server gracefully: it closes the listeners, then the
// idle connections, and waits for every active one to finish its request
// and close. It returns nil once none is left, or ctx's error if ctx ends
// first (the connections left then carry on; Close ends them). Responses
// written meanwhile say Connection: close.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.closeListeners()
	for {
		s.mu.Lock()
		for c := range s.conns {
			c.closeIf(stateIdle)
		}
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			s.stopSweep()
			return nil
		}
		select {
		case <-s.gone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops the server at once: listeners and connections are closed and
// every request's context cancelled. It returns when every connection's
// goroutine has.
func (s *HTTPServer) Close() error {
	s.closeListeners()
	s.mu.Lock()
	for c := range s.conns {
		c.close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.stopSweep()
	return nil
}

func (s *HTTPServer) closeListeners() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shutting.Store(true)
	for ln := range s.lns {
		ln.Close()
		delete(s.lns, ln)
	}
}

func (s *HTTPServer) stopSweep() {
	s.mu.Lock()
	sweeping := s.sweeping
	if sweeping {
		s.sweeping = false
		close(s.stop)
	}
	s.mu.Unlock()
	if sweeping {
		<-s.swept
	}
}

// forget drops an ended connection from the set.
func (s *HTTPServer) forget(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	select {
	case s.gone <- struct{}{}:
	default:
	}
	s.connWG.Done()
}

// sweep runs every sweepEvery for the server's life: it advances the clock
// and the Date value, and closes the connections past their deadlines.
func (s *HTTPServer) sweep() {
	defer close(s.swept)
	t := time.NewTicker(sweepEvery)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.tick(now)
			s.sweepConns(now.UnixNano())
		case <-s.stop:
			return
		}
	}
}

func (s *HTTPServer) tick(now time.Time) {
	s.clock.Store(now.UnixNano())
	var d [len(http.TimeFormat)]byte
	now.UTC().AppendFormat(d[:0], http.TimeFormat)
	s.date.Store(&d)
}

// sweepConns closes every connection idle for idleTimeout by now, and
// every one whose request head began headTimeout before now — that one
// with a log line, for a head that never ends is a client holding a
// connection, or an attack. A stamp may be a sweep period old, which the
// comparison allows for: no connection is closed early.
func (s *HTTPServer) sweepConns(now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		since := time.Duration(now - c.since.Load())
		switch c.state.Load() {
		case stateIdle:
			if since >= idleTimeout+sweepEvery {
				c.closeIf(stateIdle)
			}
		case stateHead:
			if since >= headTimeout+sweepEvery && c.closeIf(stateHead) {
				s.log.Printf("serve: closed the connection from %s: request head not complete %v after its first byte", c.remote, headTimeout)
			}
		}
	}
}

// The states of a connection, for Shutdown and the sweep.
const (
	stateIdle   int32 = iota // waiting for a request's first byte
	stateHead                // reading a request head
	stateActive              // serving a request
	stateClosed              // closed by Shutdown or the sweep
)

// The states of a request's hang-up watch.
const (
	watchOff    int32 = iota // no handler running
	watchArmed               // a handler is running; the timer may start a watch
	watchWanted              // the timer fired before the body was read: its end starts one
	watchOn                  // a watch is running
)

// srvConn is one connection and the state of the request on it.
type srvConn struct {
	s      *HTTPServer
	c      net.Conn
	raw    syscall.RawConn // nil when the connection has no descriptor to watch
	br     *bufio.Reader
	remote string
	ctx    context.Context
	cancel context.CancelFunc

	state atomic.Int32
	since atomic.Int64 // the clock when state last changed

	head reqHead
	body reqBody
	resp response

	closeAfter bool  // the connection ends after this exchange
	werr       error // the first write error; the connection ends

	watch      atomic.Int32
	bodyDone   atomic.Bool
	timer      *time.Timer
	watchDone  chan struct{}
	probe      func(fd uintptr) bool
	peerClosed bool // the watch found the client gone
}

func (s *HTTPServer) newConn(nc net.Conn) *srvConn {
	c := &srvConn{s: s, c: nc, br: bufio.NewReaderSize(nc, 4<<10), remote: nc.RemoteAddr().String()}
	c.ctx, c.cancel = context.WithCancel(s.base)
	c.head.init(c.ctx, c.remote)
	c.body.c = c
	c.resp.c = c
	c.since.Store(s.clock.Load())
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw = raw
			c.watchDone = make(chan struct{}, 1)
			c.probe = func(fd uintptr) bool {
				var b [1]byte
				n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
				if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR {
					return false // nothing yet: wait until readable
				}
				c.peerClosed = err != nil || n == 0 // a byte is a pipelined request
				return true
			}
			c.timer = time.AfterFunc(time.Hour, c.timerFired)
			c.timer.Stop()
		}
	}
	return c
}

// closeIf closes the connection if it is in state from, and reports
// whether it did.
func (c *srvConn) closeIf(from int32) bool {
	if !c.state.CompareAndSwap(from, stateClosed) {
		return false
	}
	c.c.Close()
	return true
}

func (c *srvConn) close() {
	c.state.Store(stateClosed)
	c.cancel()
	c.c.Close()
}

func (c *srvConn) setState(st int32) bool {
	old := c.state.Load()
	if old == stateClosed || !c.state.CompareAndSwap(old, st) {
		return false
	}
	c.since.Store(c.s.clock.Load())
	return true
}

// serve is the connection's goroutine: request after request until the
// connection ends.
func (c *srvConn) serve() {
	defer c.s.forget(c)
	defer c.close()
	if c.timer != nil {
		defer c.timer.Stop()
	}
	for {
		if !c.setState(stateIdle) || c.s.shutting.Load() {
			return
		}
		if _, err := c.br.Peek(1); err != nil || !c.setState(stateHead) {
			return
		}
		if err := c.head.read(c.br); err != nil {
			c.reject(err)
			return
		}
		if !c.setState(stateActive) || !c.serveRequest() {
			if !c.body.done && c.werr == nil && !c.peerClosed {
				c.closeWriteAndWait() // the client may still be sending the body
			}
			return
		}
	}
}

// reject answers a head the server refuses, the way net/http's server
// does, and lets the connection end. A head the client never finished
// sending is answered only if it said anything at all; a network error is
// not answered.
func (c *srvConn) reject(err error) {
	var he *headError
	switch {
	case errors.As(err, &he):
	case err == errHeadTooLarge:
		he = errTooLarge
	case err == io.ErrUnexpectedEOF:
		he = errBadRequest
	default:
		return
	}
	_, _ = io.WriteString(c.c, "HTTP/1.1 "+he.status+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+he.body)
	c.closeWriteAndWait()
}

// closeWriteAndWait half-closes the connection and reads what the client
// still sends for a moment, so that closing it with unread bytes does not
// reset it before the client has read the last answer (net/http waits the
// same 500 ms).
func (c *srvConn) closeWriteAndWait() {
	if cw, ok := c.c.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
		_ = c.c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		_, _ = io.Copy(io.Discard, c.c)
	}
}

// serveRequest runs the handler on the request just read and finishes its
// response. It reports whether the connection carries on.
func (c *srvConn) serveRequest() bool {
	h := &c.head
	c.closeAfter, c.werr = false, nil
	c.body.reset(h)
	c.resp.reset()
	if h.expect == expectOther {
		// net/http's answer to an expectation it cannot meet.
		c.resp.hdr.Set("Connection", "close")
		c.resp.WriteHeader(http.StatusExpectationFailed)
		c.resp.finish()
		return false
	}
	if c.timer != nil {
		c.peerClosed = false
		c.watch.Store(watchArmed)
		c.timer.Reset(watchAfter)
	}
	panicked := c.callHandler()
	if c.timer != nil {
		c.timer.Stop()
		if c.watch.Swap(watchOff) == watchOn {
			// Abort the watch's wait, and wait for it to return.
			_ = c.c.SetReadDeadline(time.Unix(1, 0))
			<-c.watchDone
			_ = c.c.SetReadDeadline(time.Time{})
		}
	}
	if panicked {
		return false
	}
	c.resp.finish()
	h.afterPost = h.req.Method == http.MethodPost
	return !c.closeAfter && c.werr == nil && !c.peerClosed && !c.s.shutting.Load()
}

// callHandler runs the handler, recovering a panic; it reports one.
func (c *srvConn) callHandler() (panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			if p != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				c.s.log.Printf("serve: panic serving %s %s for %s: %v\n%s", c.head.req.Method, c.head.req.RequestURI, c.remote, p, buf)
			}
		}
	}()
	c.s.handler.ServeHTTP(&c.resp, c.head.req)
	return false
}

// timerFired runs watchAfter into a request, on the timer's goroutine: if
// the request's body has been read the goroutine watches the connection
// itself; if not, the body's end starts the watch (bodyRead).
func (c *srvConn) timerFired() {
	if c.bodyDone.Load() && c.watch.CompareAndSwap(watchArmed, watchOn) {
		c.watchHangUp()
		return
	}
	if c.watch.CompareAndSwap(watchArmed, watchWanted) && c.bodyDone.Load() &&
		c.watch.CompareAndSwap(watchWanted, watchOn) {
		c.watchHangUp()
	}
}

// bodyRead is called when the request body has been read to its end.
func (c *srvConn) bodyRead() {
	c.bodyDone.Store(true)
	if c.watch.Load() == watchWanted && c.watch.CompareAndSwap(watchWanted, watchOn) {
		go c.watchHangUp()
	}
}

// watchHangUp waits until the connection is readable without reading it:
// end of stream or an error is the client gone, and cancels the context of
// the request still running for it; a byte is a pipelined request, and
// ends the watch. serveRequest ends a watch still waiting with a deadline.
func (c *srvConn) watchHangUp() {
	err := c.raw.Read(c.probe)
	if c.peerClosed || (err != nil && !errors.Is(err, os.ErrDeadlineExceeded)) {
		c.peerClosed = true
		c.cancel()
	}
	c.watchDone <- struct{}{}
}

// --- request head ---

// headError is a request head the server refuses: the status line's tail
// and the plain-text body net/http's server answers it with.
type headError struct{ status, body string }

func (e *headError) Error() string { return e.body }

// badRequest is the 400 net/http's server words with a reason.
func badRequest(reason string) *headError {
	s := "400 Bad Request: " + reason
	return &headError{s, s}
}

var (
	errBadRequest    = &headError{"400 Bad Request", "400 Bad Request"}
	errTooLarge      = &headError{"431 Request Header Fields Too Large", "431 Request Header Fields Too Large"}
	errUnsupportedTE = &headError{"501 Not Implemented", "Unsupported transfer encoding"}
	errVersion       = &headError{"505 HTTP Version Not Supported: unsupported protocol version", "505 HTTP Version Not Supported: unsupported protocol version"}
)

// Expectations a request head may carry.
const (
	expectNone = iota
	expectContinue
	expectOther
)

// field is one header line of a head, kept so that the next head on the
// connection can reuse its strings when it repeats the line.
type field struct{ name, value string }

// reqHead is a connection's request head: the http.Request a handler sees,
// with its URL and Header, rebuilt in place for every request, plus what
// the head decided about framing and the connection.
type reqHead struct {
	hr   headReader
	req  *http.Request
	url  url.URL
	hdr  http.Header
	vals []string // the Header's single values, one slot a line
	// prev and cur are the last head's and this head's lines; method,
	// target and proto the last request line's strings.
	prev, cur             []field
	method, target, proto string

	contentLength int64 // -1 when chunked
	chunked       bool
	close         bool // the client wants the connection closed after this exchange
	keepAlive10   bool // an HTTP/1.0 client asked to keep the connection
	expect        int
	afterPost     bool // the last request was a POST: stray CRLFs before this one are skipped
}

var chunkedTE = []string{"chunked"}

func (h *reqHead) init(ctx context.Context, remote string) {
	h.req = (&http.Request{}).WithContext(ctx)
	h.req.RemoteAddr = remote
	h.hdr = http.Header{}
}

// read reads and checks one request head from br and sets up the Request.
// An error is a *headError to answer, errHeadTooLarge (431),
// io.ErrUnexpectedEOF (a head cut short: 400), or the connection's error.
func (h *reqHead) read(br *bufio.Reader) error {
	if h.afterPost {
		// net/http's tolerance for clients that end a POST body with CRLF.
		peek, _ := br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		_, _ = br.Discard(n)
	}
	h.hr.reset(br, maxHeadBytes)
	line, err := h.hr.line()
	if err != nil {
		return err
	}
	if err := h.requestLine(line); err != nil {
		return err
	}
	if err := h.fields(); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return h.framing()
}

// requestLine parses "METHOD target HTTP/x.y" into the Request, reusing
// the last request line's strings where this one repeats them.
func (h *reqHead) requestLine(line []byte) error {
	r := h.req
	method, rest, ok1 := cutByte(line, ' ')
	target, proto, ok2 := cutByte(rest, ' ')
	if !ok1 || !ok2 {
		return errBadRequest
	}
	if !isToken(method) {
		return errBadRequest
	}
	major, minor, ok := http.ParseHTTPVersion(reuse(&h.proto, proto))
	if !ok {
		return errBadRequest
	}
	r.Method = reuse(&h.method, method)
	r.Proto, r.ProtoMajor, r.ProtoMinor = h.proto, major, minor
	r.RequestURI = reuse(&h.target, target)
	if err := h.parseURL(r.RequestURI); err != nil {
		return errBadRequest
	}
	r.URL = &h.url
	return nil
}

// reuse returns *last if b spells it, else a new string from b, which
// becomes *last.
func reuse(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// parseURL is url.ParseRequestURI for the request target; an absolute path
// of bytes that need no escaping is cut into Path and RawQuery without it.
func (h *reqHead) parseURL(target string) error {
	q := -1
	for i := 0; i < len(target); i++ {
		c := target[i]
		if c < ' ' || c == 0x7f || q < 0 && c != '?' && !pathSafe[c] {
			q = -2
			break
		}
		if c == '?' && q < 0 {
			q = i
		}
	}
	switch {
	case q == -2 || len(target) == 0 || target[0] != '/':
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return err
		}
		h.url = *u
	case q < 0:
		h.url = url.URL{Path: target}
	default:
		// A lone '?' at the end is url.URL's ForceQuery.
		h.url = url.URL{Path: target[:q], RawQuery: target[q+1:], ForceQuery: q == len(target)-1}
	}
	return nil
}

// pathSafe marks the bytes url.URL leaves unescaped in a path, so that a
// path of them alone needs neither unescaping nor a RawPath.
var pathSafe = func() (t [256]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "-_.~$&+,/:;=@" {
		t[c] = true
	}
	return
}()

// fields reads the header lines to the blank one into the Header, reusing
// the last head's strings for every line this one repeats, and notes the
// fields that frame the request or steer the connection.
func (h *reqHead) fields() error {
	if len(h.cur) > 64 { // the last head had many fields: let them go
		h.hdr, h.vals, h.cur = http.Header{}, nil, nil
	}
	clear(h.hdr)
	h.prev, h.cur = h.cur, h.prev[:0]
	h.vals = h.vals[:0]
	var (
		hosts, lengths, codings int
		length, coding, expect  string
		closing, keepAlive      bool // over every Connection line
		keepAlive1st            bool // in the first
		connections, expects    int
	)
	for i := 0; ; i++ {
		line, err := h.hr.line()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			if i == 0 {
				return errBadRequest // net/http: malformed MIME header initial line
			}
			return badRequest("obsolete line folding")
		}
		line = trimOWS(line)
		k, v, ok := cutByte(line, ':')
		if !ok || len(k) == 0 {
			return errBadRequest
		}
		v = trimOWS(v)
		for _, c := range v {
			if c < ' ' && c != '\t' || c == 0x7f {
				return errBadRequest
			}
		}
		if !isToken(k) {
			for _, c := range k {
				if !tchar[c] && c != ' ' {
					return errBadRequest
				}
			}
			return badRequest("invalid header name") // net/http reads a name with spaces, and refuses it
		}
		canonicalize(k)
		f := field{}
		if i < len(h.prev) && string(k) == h.prev[i].name && string(v) == h.prev[i].value {
			f = h.prev[i]
		} else {
			f = field{string(k), string(v)}
		}
		h.cur = append(h.cur, f)
		if vv, dup := h.hdr[f.name]; dup {
			h.hdr[f.name] = append(vv[:len(vv):len(vv)], f.value)
		} else {
			h.vals = append(h.vals, f.value)
			h.hdr[f.name] = h.vals[len(h.vals)-1 : len(h.vals) : len(h.vals)]
		}
		// v is a view of the read buffer, good until the next line: what
		// outlives it is the field's string.
		switch f.name {
		case "Host":
			hosts++
		case "Content-Length":
			if lengths++; lengths == 1 {
				length = f.value
			} else if f.value != length {
				return errBadRequest // net/http: multiple differing Content-Length headers
			}
		case "Transfer-Encoding":
			codings++
			coding = f.value
		case "Connection":
			if connections++; connections == 1 {
				keepAlive1st = hasToken(v, "keep-alive")
			}
			closing = closing || hasToken(v, "close")
			keepAlive = keepAlive || hasToken(v, "keep-alive")
		case "Expect":
			if expects++; expects == 1 {
				expect = f.value
			}
		}
	}
	r := h.req
	if hosts > 1 {
		return errBadRequest // net/http: too many Host headers
	}
	r.Host = h.url.Host
	if r.Host == "" && hosts == 1 {
		r.Host = h.hdr["Host"][0]
	}
	if p := h.hdr["Pragma"]; len(p) > 0 && p[0] == "no-cache" && h.hdr["Cache-Control"] == nil {
		h.hdr["Cache-Control"] = []string{"no-cache"} // net/http's fixPragmaCacheControl
	}
	http10 := r.ProtoMajor == 1 && r.ProtoMinor == 0
	h.close = closing || http10 && !keepAlive
	h.keepAlive10 = http10 && keepAlive1st
	h.chunked = false
	if codings > 0 {
		delete(h.hdr, "Transfer-Encoding")
		if r.ProtoAtLeast(1, 1) {
			// Only chunked, and only once: request smuggling lives here.
			if codings > 1 || !foldEq([]byte(coding), "chunked") {
				return errUnsupportedTE
			}
			if lengths > 0 {
				return badRequest("Content-Length with Transfer-Encoding")
			}
			h.chunked = true
		}
	}
	h.contentLength = 0
	if lengths > 0 {
		n, err := strconv.ParseUint(length, 10, 63)
		if err != nil {
			return errBadRequest
		}
		h.contentLength = int64(n)
		if lengths > 1 {
			h.hdr["Content-Length"] = h.hdr["Content-Length"][:1]
		}
	}
	h.expect = expectNone
	switch {
	case hasToken([]byte(expect), "100-continue"):
		h.expect = expectContinue
	case expect != "":
		h.expect = expectOther
	}
	return nil
}

// framing finishes the Request from the fields and checks what net/http's
// server checks after reading a head.
func (h *reqHead) framing() error {
	r := h.req
	if r.ProtoMajor != 1 {
		return errVersion
	}
	if r.ProtoAtLeast(1, 1) && h.hdr["Host"] == nil && r.Method != http.MethodConnect {
		return badRequest("missing required Host header")
	}
	if hosts := h.hdr["Host"]; len(hosts) == 1 {
		for i := 0; i < len(hosts[0]); i++ {
			if !hostByte[hosts[0][i]] {
				return badRequest("malformed Host header")
			}
		}
		delete(h.hdr, "Host")
	}
	if h.expect == expectContinue && !r.ProtoAtLeast(1, 1) {
		h.expect = expectNone // an HTTP/1.0 client gets no 100 Continue, as from net/http
	}
	r.Header = h.hdr
	r.Close = h.close
	r.TransferEncoding = nil
	r.ContentLength = h.contentLength
	if h.chunked {
		r.TransferEncoding, r.ContentLength = chunkedTE, -1
	}
	r.Form, r.PostForm, r.MultipartForm, r.Trailer = nil, nil, nil, nil
	return nil
}

// canonicalize rewrites a valid field name in place into its canonical
// form, as textproto.CanonicalMIMEHeaderKey does.
func canonicalize(k []byte) {
	upper := true
	for i, c := range k {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		k[i] = c
		upper = c == '-'
	}
}

// hostByte marks the bytes httpguts.ValidHostHeader allows in a Host value.
var hostByte = func() (t [256]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "!$%&()*+,-.:;=['_]~" {
		t[c] = true
	}
	return
}()
