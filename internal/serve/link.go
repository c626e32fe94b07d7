// The peer link: how a forwarding front reaches one shard process. It is
// HTTP/1.1 over a small pool of persistent connections, each driven on the
// goroutine that needs the answer — the handler's — with no reader or
// writer goroutine behind it: one writev carries the request head and the
// caller's body (never copied), one buffered read usually carries the
// whole response, and the response body goes to its consumer as it
// arrives. The shard side is net/http's server, unchanged; these are the
// wire bytes any HTTP client sends it.
//
// Rules of the link:
//
//   - Nothing is retried once a byte has been written — an extract,
//     promote or learn may have been applied though its answer was lost.
//     So an idle connection is probed before reuse (a non-blocking
//     one-byte MSG_PEEK, as database drivers probe pooled connections)
//     and dropped if the peer has closed it or sent anything unasked; a
//     peer restarted on its address costs no request. Idempotent GETs
//     alone are sent a second time after a failure.
//   - Every exchange runs under one connection deadline — the caller's
//     budget or its context's deadline, whichever is sooner — and a
//     cancelled context (the client hung up, the front is shutting down)
//     moves that deadline into the past, which fails the read or write in
//     progress at once.
//   - A connection returns to the pool only after a response read to its
//     end over a framing that says where the end is, from a peer that did
//     not ask to close, with no cancellation fired; anything else closes
//     it.

package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The limits this hop had when net/http's transport carried it.
const (
	linkMaxIdle     = 32               // idle connections kept per peer
	linkIdleTimeout = 90 * time.Second // an idle connection this old is closed, not reused
	linkDialTimeout = 2 * time.Second
	linkKeepAlive   = 30 * time.Second // TCP keep-alive probes
	// linkReadBuf is each connection's read buffer. A response line longer
	// than it is refused, and a body no longer than it is awaited whole
	// before any of the response is relayed (see readHead).
	linkReadBuf = 16 << 10
	// linkMaxHead caps the status line and headers of one response.
	linkMaxHead = 64 << 10
)

// relayedHeaders are the response headers a relay passes on: the content
// headers, the backpressure hint of a 429, the 405's Allow and the job
// location of a 202.
var relayedHeaders = [...]string{"Content-Type", "Content-Length", "Retry-After", "Allow", "Location"}

const hdrContentLength = 1 // index in relayedHeaders

// peerLink is the connection pool of one peer.
type peerLink struct {
	addr string
	// headers follow the request line of every request: Host, and the
	// ring fingerprint the shard checks (RingHashHeader).
	headers []byte

	mu   sync.Mutex
	idle []*peerConn // oldest first; the newest is reused first
}

func newPeerLink(addr, ringHash string) *peerLink {
	return &peerLink{
		addr:    addr,
		headers: []byte("Host: " + addr + "\r\n" + RingHashHeader + ": " + ringHash + "\r\n"),
	}
}

// peerConn is one connection of the link and the state of the exchange in
// flight on it.
type peerConn struct {
	c         net.Conn
	raw       syscall.RawConn
	br        *bufio.Reader
	idleSince time.Time

	head []byte      // request head scratch
	iov  [2][]byte   // head and body of the request being written
	wv   net.Buffers // iov as writev consumes it; a field so that it is not allocated per write

	// probe is alive's callback and abort the context's AfterFunc, built
	// once per connection so that neither allocates per request.
	probe func(fd uintptr) bool
	quiet bool // probe's verdict: nothing to read and not closed
	abort func()
	stop  func() bool // unregisters abort; false if it has fired

	// The response head of the exchange in flight.
	status    int
	length    int64 // body length, -1 if the head does not say
	chunked   bool
	keepAlive bool
	hbuf      []byte                      // values of the relayed headers, end to end
	hdr       [len(relayedHeaders)][2]int // their bounds in hbuf; empty if absent
}

// send performs one exchange as far as the response head and returns the
// connection with the body unread: the caller consumes it (relayTo,
// copyBody) and then calls release. budget bounds the whole exchange,
// tightened by ctx's deadline; cancelling ctx aborts it.
func (l *peerLink) send(ctx context.Context, method, path string, body []byte, budget time.Duration) (*peerConn, error) {
	now := time.Now()
	deadline := now.Add(budget)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pc, err := l.attempt(ctx, method, path, body, now, deadline)
	if err != nil && method == http.MethodGet && ctx.Err() == nil {
		pc, err = l.attempt(ctx, method, path, body, now, deadline)
	}
	return pc, err
}

func (l *peerLink) attempt(ctx context.Context, method, path string, body []byte, now, deadline time.Time) (*peerConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pc, err := l.acquire(ctx, now, deadline)
	if err != nil {
		return nil, err
	}
	pc.stop = context.AfterFunc(ctx, pc.abort)
	if err = pc.writeRequest(method, path, l.headers, body); err == nil {
		err = pc.readHead()
	}
	if err != nil {
		l.release(pc, err)
		// An aborted exchange fails with the deadline abort set; the
		// context's error is the cause.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, err
	}
	return pc, nil
}

// acquire returns a connection with its deadline set: the most recently
// used idle one that is young enough and passes the probe, else a new one.
func (l *peerLink) acquire(ctx context.Context, now, deadline time.Time) (*peerConn, error) {
	for {
		l.mu.Lock()
		n := len(l.idle)
		if n == 0 {
			l.mu.Unlock()
			break
		}
		pc := l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		// The deadline first: the probe fails on a connection whose last
		// exchange's deadline has since passed.
		if now.Sub(pc.idleSince) < linkIdleTimeout && pc.c.SetDeadline(deadline) == nil && pc.alive() {
			return pc, nil
		}
		pc.c.Close()
	}
	d := net.Dialer{Timeout: linkDialTimeout, KeepAlive: linkKeepAlive, Deadline: deadline}
	c, err := d.DialContext(ctx, "tcp", l.addr)
	if err != nil {
		return nil, err
	}
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err == nil {
		err = c.SetDeadline(deadline)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	pc := &peerConn{c: c, raw: raw, br: bufio.NewReaderSize(c, linkReadBuf)}
	pc.probe = func(fd uintptr) bool {
		var b [1]byte
		_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		pc.quiet = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
		return true // never wait for the socket to become readable
	}
	pc.abort = func() { _ = pc.c.SetDeadline(time.Unix(1, 0)) } // fails on a closed connection, which needs no abort
	return pc, nil
}

// alive reports whether an idle connection can carry another request: the
// peer has not closed it (a read would return 0), reset it, or sent bytes
// nobody asked for.
func (pc *peerConn) alive() bool {
	pc.quiet = false
	return pc.raw.Read(pc.probe) == nil && pc.quiet
}

// release ends an exchange. err is what consuming the response came to;
// the connection is pooled if that and the link's other rules allow.
func (l *peerLink) release(pc *peerConn, err error) {
	fired := !pc.stop()
	pc.stop = nil
	reusable := pc.keepAlive && (pc.chunked || pc.length >= 0)
	if err != nil || fired || !reusable || pc.br.Buffered() != 0 {
		pc.c.Close()
		return
	}
	now := time.Now()
	pc.idleSince = now
	l.mu.Lock()
	expired := 0
	for expired < len(l.idle) && now.Sub(l.idle[expired].idleSince) >= linkIdleTimeout {
		l.idle[expired].c.Close()
		expired++
	}
	if expired > 0 {
		n := copy(l.idle, l.idle[expired:])
		clear(l.idle[n:])
		l.idle = l.idle[:n]
	}
	if len(l.idle) < linkMaxIdle {
		l.idle = append(l.idle, pc)
		pc = nil
	}
	l.mu.Unlock()
	if pc != nil {
		pc.c.Close()
	}
}

// writeRequest sends the request head and body in one writev.
func (pc *peerConn) writeRequest(method, path string, headers, body []byte) error {
	b := append(pc.head[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = append(b, headers...)
	if method == http.MethodPost {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	pc.head = b
	pc.iov = [2][]byte{b, body}
	pc.wv = pc.iov[:]
	_, err := pc.wv.WriteTo(pc.c)
	pc.iov = [2][]byte{} // the body is the caller's, not the pool's to keep
	return err
}

var errMalformedResponse = errors.New("malformed HTTP response")

// readHead reads the status line and headers of the response, keeping the
// status, the framing, whether the peer will keep the connection open, and
// the relayed headers' values.
func (pc *peerConn) readHead() error {
	line, err := pc.br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("reading status line: %w", err)
	}
	// "HTTP/1.x SSS", then a space and the reason or the end of the line.
	if len(line) < 13 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') || line[8] != ' ' || line[12] > ' ' {
		return fmt.Errorf("%w: status line %.40q", errMalformedResponse, line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil || status < 200 { // this link sends nothing a 1xx answers
		return fmt.Errorf("%w: status line %.40q", errMalformedResponse, line)
	}
	pc.status = status
	pc.keepAlive = line[7] == '1' // HTTP/1.0 closes unless it says otherwise
	pc.length, pc.chunked = -1, false
	pc.hbuf, pc.hdr = pc.hbuf[:0], [len(relayedHeaders)][2]int{}
	for size := len(line); ; {
		if line, err = pc.br.ReadSlice('\n'); err != nil {
			return fmt.Errorf("reading headers: %w", err)
		}
		if size += len(line); size > linkMaxHead {
			return fmt.Errorf("%w: headers exceed %d bytes", errMalformedResponse, linkMaxHead)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("%w: header line %.40q", errMalformedResponse, line)
		}
		k, v := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case foldEq(k, "Transfer-Encoding"):
			if !foldEq(v, "chunked") {
				return fmt.Errorf("%w: transfer encoding %.40q", errMalformedResponse, v)
			}
			pc.chunked = true
		case foldEq(k, "Connection"):
			if foldEq(v, "close") {
				pc.keepAlive = false
			} else if foldEq(v, "keep-alive") {
				pc.keepAlive = true
			}
		default:
			for i, name := range relayedHeaders {
				if !foldEq(k, name) {
					continue
				}
				if i == hdrContentLength {
					if pc.length, err = strconv.ParseInt(string(v), 10, 64); err != nil || pc.length < 0 {
						return fmt.Errorf("%w: content length %.40q", errMalformedResponse, v)
					}
				}
				pc.hdr[i] = [2]int{len(pc.hbuf), len(pc.hbuf) + len(v)}
				pc.hbuf = append(pc.hbuf, v...)
			}
		}
	}
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified:
		pc.length, pc.chunked = 0, false
	case pc.chunked:
		// Chunks frame the body; a length beside them is void (RFC 9112 §6.3).
		pc.length, pc.hdr[hdrContentLength] = -1, [2]int{}
	case pc.length > 0 && pc.length <= linkReadBuf:
		// A body the read buffer holds is awaited whole before any of the
		// response is passed on: a peer that dies mid-answer is then a
		// failed exchange — a 503 — and not half of a 200.
		if _, err := pc.br.Peek(int(pc.length)); err != nil {
			return fmt.Errorf("reading body: %w", err)
		}
	}
	return nil
}

// foldEq reports whether b is the header name or token s in any case.
func foldEq(b []byte, s string) bool {
	return len(b) == len(s) && bytes.EqualFold(b, []byte(s))
}

// header returns the value of relayed header i, empty if the response did
// not carry it. The view is valid until the connection's next exchange.
func (pc *peerConn) header(i int) []byte { return pc.hbuf[pc.hdr[i][0]:pc.hdr[i][1]] }

// relayTo passes the response on to w: status, the relayed headers, then
// the body as it arrives, never accumulated. An error after the status has
// been written cannot be reported to the client any more; see
// httpShard.forward.
func (pc *peerConn) relayTo(w http.ResponseWriter) error {
	h := w.Header()
	for i, name := range relayedHeaders {
		if v := pc.header(i); len(v) > 0 {
			s := "application/json" // nearly every Content-Type; not worth a string each
			if string(v) != s {
				s = string(v)
			}
			h[name] = []string{s} // the names are in canonical form
		}
	}
	w.WriteHeader(pc.status)
	return pc.copyBody(w)
}

// copyBody streams the response body to w by the framing the head declared:
// chunked, length-delimited, or all there is until the peer closes.
func (pc *peerConn) copyBody(w io.Writer) error {
	if !pc.chunked {
		return pc.copyN(w, pc.length)
	}
	for {
		line, err := pc.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading chunk size: %w", err)
		}
		digits, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte{';'}) // chunk extensions are ignored
		n, err := strconv.ParseInt(string(bytes.Trim(digits, " \t")), 16, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: chunk size %.40q", errMalformedResponse, line)
		}
		if n == 0 {
			break
		}
		if err := pc.copyN(w, n); err != nil {
			return err
		}
		if line, err = pc.br.ReadSlice('\n'); err != nil || len(bytes.TrimRight(line, "\r\n")) != 0 {
			return fmt.Errorf("%w: chunk not followed by CRLF", errMalformedResponse)
		}
	}
	for { // the trailer section, to its blank line
		line, err := pc.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading trailer: %w", err)
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}

// copyN streams the next n bytes of the connection to w, straight out of
// the read buffer; n < 0 means every byte until the peer closes.
func (pc *peerConn) copyN(w io.Writer, n int64) error {
	for n != 0 {
		if pc.br.Buffered() == 0 {
			if _, err := pc.br.Peek(1); err != nil {
				if err != io.EOF {
					return fmt.Errorf("reading body: %w", err)
				}
				if n < 0 {
					return nil
				}
				return fmt.Errorf("reading body: %w", io.ErrUnexpectedEOF)
			}
		}
		k := pc.br.Buffered()
		if n > 0 && int64(k) > n {
			k = int(n)
		}
		b, _ := pc.br.Peek(k) // buffered: cannot fail
		if _, err := w.Write(b); err != nil {
			return err
		}
		_, _ = pc.br.Discard(k)
		if n > 0 {
			n -= int64(k)
		}
	}
	return nil
}
