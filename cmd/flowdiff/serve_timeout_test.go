package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeClosesStalledHeaders: a client that never finishes its
// request headers must not hold its connection forever. The server is
// built the way runServe builds it, with a short header timeout in
// place of the production constant.
func TestServeClosesStalledHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	srv := newHTTPServer(http.NotFoundHandler(), timeout)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	// The server's header clock starts once it has accepted the
	// connection, so the earliest it can close is timeout after the dial
	// began; timing from after Dial returned could read a few ms short.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/tenants/t/events HTTP/1.1\r\nHost: flowdiff\r\nContent-"); err != nil {
		t.Fatal(err)
	}
	// Without the timeout this read blocks until its own deadline.
	if err := conn.SetReadDeadline(start.Add(20 * timeout)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("the server did not close the stalled connection within %v: %v", 20*timeout, err)
	}
	if took := time.Since(start); took < timeout {
		t.Errorf("connection closed after %v, before the %v header timeout", took, timeout)
	}
}
