package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"odin/internal/serve"
)

// TestShutdownEndsEventStreams is the drain regression for `odinserve
// serve`: with a GET /events client attached, Shutdown must return before
// its deadline and the client must see the stream end. The SSE loop ends
// only with its request context, which Shutdown by itself never cancels,
// so without newHTTPServer's base context the drain waits on the client
// forever.
func TestShutdownEndsEventStreams(t *testing.T) {
	t.Parallel()
	s, _ := liveFleet(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), serve.NewHandler(s))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	// The handler flushes its headers after the ring backfill, so Get
	// returns once the stream is open and the handler is in its loop.
	resp, err := http.Get("http://" + ln.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an SSE client attached: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("event stream did not end cleanly: %v", err)
	}
}
