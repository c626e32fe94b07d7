package serve

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
)

// HTTP/1.1 message heads and chunked framing, read the same way in both
// directions: the requests httpserver.go serves and the responses the peer
// link (link.go) relays. Both read a head line by line off a bufio.Reader
// under a byte budget, check field names against the token grammar, and
// compare names and tokens case-insensitively.

var errHeadTooLarge = errors.New("message head too large")

// maxChunkLine caps a line of chunked framing (net/http's limit).
const maxChunkLine = 4 << 10

// headReader reads the lines of one message head, charging each against the
// head's byte budget.
type headReader struct {
	br *bufio.Reader
	// long holds a line longer than br's buffer, assembled across reads.
	long []byte
	// left is what the rest of the head may take.
	left int
}

// reset starts a head of at most budget bytes on br.
func (h *headReader) reset(br *bufio.Reader, budget int) {
	h.br, h.left = br, budget
	if cap(h.long) > 4<<10 {
		h.long = nil // one oversized line must not pin its buffer
	}
}

// line returns the next line without its line break (CRLF, or a bare LF as
// bufio.Reader.ReadLine accepts), valid until the next call. A line that
// would take the head past its budget is errHeadTooLarge; a head cut short
// is the reader's error.
func (h *headReader) line() ([]byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		h.long = append(h.long[:0], line...)
		for err == bufio.ErrBufferFull && len(h.long) <= h.left {
			line, err = h.br.ReadSlice('\n')
			h.long = append(h.long, line...)
		}
		line = h.long
	}
	if h.left -= len(line); h.left < 0 {
		return nil, errHeadTooLarge
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// tchar marks the bytes of an RFC 9110 token: a method, a field name, a
// transfer coding.
var tchar = func() (t [256]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		t[c] = true
	}
	return
}()

// isToken reports whether b is a non-empty token.
func isToken[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		if !tchar[b[i]] {
			return false
		}
	}
	return len(b) > 0
}

// trimOWS drops the spaces and tabs around a field value.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// foldEq reports whether b is the header name or token s in any case.
func foldEq(b []byte, s string) bool {
	return len(b) == len(s) && bytes.EqualFold(b, []byte(s))
}

// hasToken reports whether the comma-separated list v holds token in any
// case, as httpguts.HeaderValuesContainsToken reads one value.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		elem, rest, _ := bytes.Cut(v, []byte{','})
		if foldEq(trimOWS(elem), token) {
			return true
		}
		v = rest
	}
	return false
}

// chunkSize parses a chunk-size line: hex digits, then chunk extensions,
// which are ignored.
func chunkSize(line []byte) (int64, bool) {
	size, _, _ := cutByte(line, ';')
	size = trimOWS(size)
	if len(size) == 0 || len(size) > 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(string(size), 16, 63)
	return int64(n), err == nil
}

// cutByte is bytes.Cut around a single byte.
func cutByte(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}
