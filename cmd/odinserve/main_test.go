package main

import (
	"context"
	"errors"
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

// TestHTTPServerLimits pins the live server's connection limits: a header
// timeout, a read timeout and an idle timeout, so a client that never
// finishes its headers cannot hold a connection forever, and no write
// timeout, which would cut GET /events streams. It then shortens both read
// timeouts and checks that an /events stream still delivers an event
// published after they expired.
func TestHTTPServerLimits(t *testing.T) {
	t.Parallel()
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, ReadTimeout %v, IdleTimeout %v: want all three set",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut /events streams, want none", srv.WriteTimeout)
	}

	s, _ := liveFleet(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = newHTTPServer(ln.Addr().String(), serve.NewHandler(s))
	srv.ReadHeaderTimeout, srv.ReadTimeout = 50*time.Millisecond, 50*time.Millisecond
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/events?types=batch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.Sleep(200 * time.Millisecond)
	if r := <-s.Submit("VGG11"); r.Shed || r.Err != "" {
		t.Fatalf("submit not served: %+v", r)
	}
	errGot := errors.New("got an event")
	got := make(chan error, 1)
	go func() {
		got <- readSSE(resp.Body, func(sseFrame) error { return errGot })
	}()
	select {
	case err := <-got:
		if err != errGot {
			t.Fatalf("/events ended before delivering the batch event: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch event on /events within 5 s")
	}
}
