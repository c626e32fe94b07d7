package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven with pre-encoded
// requests. The generator shares two cores with the servers it measures, so
// it spends as little as it can: no per-request allocation, no goroutines of
// its own, one write and one buffered read per round trip.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c != nil && c.c != nil {
		c.c.Close()
	}
}

// encodeRequest renders a complete HTTP/1.1 request. body may be nil (GET).
func encodeRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// roundTrip writes one pre-encoded request and reads the whole response. The
// returned body is valid until the next call on this connection.
func (c *conn) roundTrip(wire []byte, timeout time.Duration) (status int, body []byte, err error) {
	if err := c.send(wire, timeout); err != nil {
		return 0, nil, err
	}
	return c.recv()
}

// send writes one request; timeout bounds the whole round trip.
func (c *conn) send(wire []byte, timeout time.Duration) error {
	if err := c.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := c.c.Write(wire); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// recv reads the response to the request last sent.
func (c *conn) recv() (status int, body []byte, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		h, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, _ := bytes.Cut(h, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("content-length %q: %w", v, err)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			sz, err := c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, fmt.Errorf("chunk size: %w", err)
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(sz)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("chunk size %q: %w", sz, err)
			}
			if err := c.readBody(int(n) + 2); err != nil { // data + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("response has neither content-length nor chunked encoding")
	}
	return status, c.body, nil
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	if _, err := io.ReadFull(c.r, c.body[at:]); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}
