package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
)

// The two halves of an exchange on an HTTPServer connection: the request
// body a handler reads and the response it writes. Both belong to the
// connection and are reset for every request.

// reqBody is a request's body as the handler reads it: length-delimited or
// chunked, straight out of the connection's reader.
type reqBody struct {
	c       *srvConn
	left    int64 // bytes left in the body, or in the current chunk
	chunked bool
	// crlfOwed is set once a chunk's data has been read: the CRLF that
	// ends it comes before the next chunk's size line.
	crlfOwed bool
	done     bool // read to its end
	closed   bool
	err      error // a framing or connection error, returned from then on
	// continueOwed is set while the 100 Continue a client waits for before
	// it sends the body is unsent: the first read sends it.
	continueOwed bool
}

// reset sets the body up for the request h has just read.
func (b *reqBody) reset(h *reqHead) {
	b.left, b.chunked = h.contentLength, h.chunked
	b.done = !h.chunked && h.contentLength == 0
	b.crlfOwed, b.closed, b.err = false, false, nil
	b.continueOwed = h.expect == expectContinue && !b.done
	b.c.bodyDone.Store(b.done)
	if b.done {
		h.req.Body = http.NoBody
	} else {
		h.req.Body = b
	}
}

var errChunked = errors.New("malformed chunked encoding")

func (b *reqBody) Read(p []byte) (int, error) {
	switch {
	case b.closed:
		return 0, http.ErrBodyReadAfterClose
	case b.err != nil:
		return 0, b.err
	case b.done:
		return 0, io.EOF
	case len(p) == 0:
		return 0, nil
	}
	if b.continueOwed {
		b.continueOwed = false
		if _, err := io.WriteString(b.c.c, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			b.c.werr = err
		}
	}
	if b.chunked && b.left == 0 {
		if err := b.nextChunk(); err != nil {
			b.err = err
			return 0, err
		}
		if b.done {
			return 0, io.EOF
		}
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.c.br.Read(p)
	b.left -= int64(n)
	if err == io.EOF && !b.chunked {
		// The client ended its stream mid-body. The body is over, as
		// net/http reads it, and the next head finds the end of the stream.
		b.end()
		return n, io.ErrUnexpectedEOF
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		b.err = err
		return n, err
	}
	if b.left == 0 && !b.chunked {
		b.end()
		return n, io.EOF
	}
	return n, nil
}

func (b *reqBody) end() {
	b.done = true
	b.c.bodyRead()
}

// nextChunk reads the line that opens the next chunk — after the CRLF that
// closes the one before — and, at the last chunk, the trailer section to
// its blank line, dropped.
func (b *reqBody) nextChunk() error {
	hr := &b.c.head.hr
	line, err := b.chunkLine(hr)
	if err == nil && b.crlfOwed {
		if len(line) != 0 {
			return errChunked
		}
		b.crlfOwed = false
		line, err = b.chunkLine(hr)
	}
	if err != nil {
		return err
	}
	n, ok := chunkSize(line)
	if !ok {
		return errChunked
	}
	if n > 0 {
		b.left, b.crlfOwed = n, true
		return nil
	}
	hr.reset(b.c.br, maxHeadBytes)
	for {
		line, err := hr.line()
		if err != nil {
			return framingErr(err)
		}
		if len(line) == 0 {
			b.end()
			return nil
		}
	}
}

// chunkLine reads one line of chunk framing.
func (b *reqBody) chunkLine(hr *headReader) ([]byte, error) {
	hr.reset(b.c.br, maxChunkLine)
	line, err := hr.line()
	return line, framingErr(err)
}

// framingErr is the error of a body whose framing broke off: the
// connection's own error, or errChunked for a line that ended the stream
// or ran past its limit.
func framingErr(err error) error {
	if err == io.EOF || err == errHeadTooLarge {
		return errChunked
	}
	return err
}

func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// drain reads and drops what the handler left of the body, up to maxDrain
// bytes, so that the connection can carry the next request. It reports
// whether it got to the end.
func (b *reqBody) drain() bool {
	switch {
	case b.done:
		return true
	case b.closed, b.err != nil, !b.chunked && b.left > maxDrain:
		return false
	}
	var buf [512]byte
	for total := 0; total <= maxDrain; {
		n, err := b.Read(buf[:])
		total += n
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
	return false
}

// response is the http.ResponseWriter of a request. It holds the body back
// until bufferBeforeChunking bytes or the handler's return, so that a
// response of unknown length can still go out under a Content-Length, and
// then sends status line, headers and body in one writev — whose body
// buffer is the handler's own, not a copy, when one Write carries the whole
// body of a declared Content-Length.
type response struct {
	c      *srvConn
	hdr    http.Header
	status int    // 0 until WriteHeader
	head   []byte // status line and handler headers, then the server's
	pend   []byte // body held back
	// What WriteHeader found in the handler's headers.
	clen        int64 // the declared Content-Length, -1 if none
	hasType     bool
	hasDate     bool
	connection  []string // the handler's Connection values
	written     int64    // body bytes the handler wrote
	committed   bool     // the head is out
	chunked     bool
	handlerDone bool
	iov         [5][]byte
	wv          net.Buffers
	size        [18]byte // a chunk's size line
}

func (w *response) reset() {
	if w.hdr == nil || len(w.hdr) > 64 {
		w.hdr = http.Header{}
	}
	clear(w.hdr)
	if cap(w.head) > 4<<10 {
		w.head = nil
	}
	w.status, w.pend, w.written = 0, w.pend[:0], 0
	w.committed, w.chunked, w.handlerDone = false, false, false
}

func (w *response) Header() http.Header { return w.hdr }

// WriteHeader formats the status line and the handler's headers then and
// there, as net/http snapshots them: later changes to the map are not sent.
func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic("serve: invalid WriteHeader code " + strconv.Itoa(code))
	}
	w.status = code
	w.clen = -1
	if cl := w.hdr["Content-Length"]; len(cl) > 0 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil && n >= 0 {
			w.clen = n
		} else {
			delete(w.hdr, "Content-Length") // net/http drops an invalid one
		}
	}
	_, w.hasType = w.hdr["Content-Type"]
	_, w.hasDate = w.hdr["Date"]
	w.connection = w.hdr["Connection"]
	w.head = appendStatusLine(w.head[:0], w.c.head.req.ProtoAtLeast(1, 1), code)
	w.head = appendHeaders(w.head, w.hdr, code)
}

func bodyAllowed(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	switch {
	case !bodyAllowed(w.status):
		return 0, http.ErrBodyNotAllowed
	case w.c.werr != nil:
		return 0, w.c.werr
	case w.clen >= 0 && w.written+int64(len(p)) > w.clen:
		return 0, http.ErrContentLength
	}
	w.written += int64(len(p))
	if w.committed {
		return len(p), w.send(nil, p)
	}
	if len(w.pend)+len(p) <= bufferBeforeChunking && int64(len(p)) != w.clen {
		w.pend = append(w.pend, p...)
		return len(p), nil
	}
	// Past what is held back, or the whole body in one write: out with the
	// head, and p not copied.
	first := w.pend
	if len(first) == 0 {
		first = p
	}
	w.commit(first)
	return len(p), w.send(w.pend, p)
}

// finish completes the response once the handler has returned.
func (w *response) finish() {
	w.handlerDone = true
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.committed {
		w.commit(w.pend)
		_ = w.send(w.pend, nil)
	}
	if w.chunked {
		w.head = append(w.head, "0\r\n\r\n"...)
		_ = w.send(nil, nil)
	}
	if w.clen >= 0 && w.written != w.clen && bodyAllowed(w.status) && w.c.head.req.Method != http.MethodHead {
		w.c.closeAfter = true // the client is left short of what it was promised
	}
}

// commit decides the framing and the connection's future as net/http's
// chunkWriter.writeHeader does, and completes the head with the server's
// fields; first is the start of the body, to sniff a Content-Type from.
func (w *response) commit(first []byte) {
	w.committed = true
	c := w.c
	req := c.head.req
	http11 := req.ProtoAtLeast(1, 1)
	isHEAD := req.Method == http.MethodHead
	allowed := bodyAllowed(w.status)
	computed := w.handlerDone && w.clen < 0 && allowed && (!isHEAD || len(first) > 0)
	if computed {
		w.clen = int64(len(first))
	}
	connection := "" // the server's Connection field
	if c.head.keepAlive10 && (isHEAD || w.clen >= 0 || !allowed) {
		if w.connection == nil {
			connection = "keep-alive"
		}
	} else if !http11 || c.head.close {
		c.closeAfter = true
	}
	shutting := c.s.shutting.Load()
	if firstOf(w.connection) == "close" || shutting || c.body.continueOwed {
		c.closeAfter = true
	}
	if req.ContentLength != 0 && !c.closeAfter && !c.body.drain() {
		// What the handler left unread is too much to wade through.
		c.closeAfter, connection, w.connection = true, "close", nil
	}
	switch {
	case isHEAD || !allowed || w.clen >= 0:
	case http11:
		w.chunked = true
	default:
		c.closeAfter = true // an HTTP/1.0 body of unknown length ends with the connection
	}
	if c.closeAfter && (shutting || !hasToken([]byte(firstOf(w.connection)), "close")) {
		w.connection = nil
		if http11 {
			connection = "close"
		}
	}
	for _, v := range w.connection {
		w.head = appendField(w.head, "Connection", v)
	}
	if allowed && !w.hasType && len(first) > 0 {
		w.head = appendField(w.head, "Content-Type", http.DetectContentType(first))
	}
	if connection != "" {
		w.head = appendField(w.head, "Connection", connection)
	}
	if w.chunked {
		w.head = appendField(w.head, "Transfer-Encoding", "chunked")
	}
	if !w.hasDate {
		w.head = append(w.head, "Date: "...)
		w.head = append(w.head, c.s.date.Load()[:]...)
		w.head = append(w.head, "\r\n"...)
	}
	if computed {
		w.head = append(w.head, "Content-Length: "...)
		w.head = strconv.AppendInt(w.head, w.clen, 10)
		w.head = append(w.head, "\r\n"...)
	}
	w.head = append(w.head, "\r\n"...)
}

// send writes what head holds (and empties it), then a and b — one chunk
// when the response is chunked — in one writev. A HEAD response sends no
// body.
func (w *response) send(a, b []byte) error {
	c := w.c
	if c.werr != nil {
		return c.werr
	}
	if c.head.req.Method == http.MethodHead {
		a, b = nil, nil
	}
	w.wv = append(w.iov[:0], w.head)
	switch n := len(a) + len(b); {
	case n > 0 && w.chunked:
		size := append(strconv.AppendUint(w.size[:0], uint64(n), 16), '\r', '\n')
		w.wv = append(w.wv, size, a, b, crlf)
	case n > 0:
		w.wv = append(w.wv, a, b)
	case len(w.head) == 0:
		return nil
	}
	_, err := w.wv.WriteTo(c.c)
	w.iov = [5][]byte{} // the body buffers are the handler's, not the connection's to keep
	w.head = w.head[:0]
	if err != nil {
		c.werr = err
	}
	return err
}

var crlf = []byte("\r\n")

func firstOf(v []string) string {
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// appendStatusLine appends "HTTP/1.x code text".
func appendStatusLine(b []byte, http11 bool, code int) []byte {
	if http11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	if text := http.StatusText(code); text != "" {
		b = append(b, text...)
	} else {
		b = append(b, "status code "...)
		b = strconv.AppendInt(b, int64(code), 10)
	}
	return append(b, "\r\n"...)
}

// appendHeaders appends the handler's fields of a response with status
// code, names in sorted order as net/http writes them. The fields the
// server decides — framing and Connection — are left to commit, and those a
// status without a body may not carry are dropped.
func appendHeaders(b []byte, h http.Header, code int) []byte {
	var small [16]string
	keys := small[:0]
	for k := range h {
		switch {
		case k == "Transfer-Encoding" || k == "Connection" || !isToken(k):
		case k == "Content-Length" && !bodyAllowed(code):
		case k == "Content-Type" && code == http.StatusNotModified:
		default:
			keys = append(keys, k)
		}
	}
	for i := 1; i < len(keys); i++ { // insertion sort: a handful of names
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		for _, v := range h[k] {
			b = appendField(b, k, v)
		}
	}
	return b
}

// appendField appends "name: value" with the value's line breaks turned
// into spaces and its ends trimmed, as net/http writes a field.
func appendField(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, ':', ' ')
	start := len(b)
	b = append(b, value...)
	for i := start; i < len(b); i++ {
		if b[i] == '\r' || b[i] == '\n' {
			b[i] = ' '
		}
	}
	b = append(b[:start], trimOWS(b[start:])...)
	return append(b, '\r', '\n')
}
