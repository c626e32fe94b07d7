// Package servetest runs a handler behind serve.HTTPServer on a loopback
// port — httptest.NewServer's shape over the server the daemon runs, so that
// tests exercise the serving path production takes.
package servetest

import (
	"io"
	"log"
	"net"
	"net/http"
	"sync"

	"autowrap/internal/serve"
)

// Server is a handler served on 127.0.0.1.
type Server struct {
	// URL is the base URL, http://127.0.0.1:port, with no trailing slash.
	URL string

	srv    *serve.HTTPServer
	served chan struct{}

	mu     sync.Mutex
	client *http.Client
	closed bool
}

// NewServer starts serving h. The server logs nothing: a test that wants
// the server's log lines builds its own serve.HTTPServer.
func NewServer(h http.Handler) *Server {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("servetest: listening on a loopback port: " + err.Error())
	}
	s := &Server{
		URL:    "http://" + ln.Addr().String(),
		srv:    serve.NewHTTPServer(h, log.New(io.Discard, "", 0)),
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	return s
}

// Client returns a client of its own for the server, whose idle
// connections Close closes.
func (s *Server) Client() *http.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client == nil {
		s.client = &http.Client{Transport: &http.Transport{}}
	}
	return s.client
}

// Close stops the server and returns once every connection's goroutine
// has; like httptest's, it also closes the idle connections of
// http.DefaultTransport, so that a test's leak check does not find their
// goroutines. Close may be called more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	client := s.client
	s.mu.Unlock()
	s.srv.Close()
	<-s.served
	if client != nil {
		client.CloseIdleConnections()
	}
	if t, ok := http.DefaultTransport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
}
