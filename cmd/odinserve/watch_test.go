package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odin/internal/clock"
	"odin/internal/pulse"
	"odin/internal/serve"
)

// watchTestServer starts a live single-chip fleet with a pulse bus and
// mounts its handler on an httptest server — the full stack `odinserve
// watch` talks to.
func watchTestServer(t *testing.T) (*serve.Server, *pulse.Bus, *httptest.Server) {
	t.Helper()
	s, bus := liveFleet(t)
	ts := httptest.NewServer(serve.NewHandler(s))
	t.Cleanup(ts.Close)
	return s, bus, ts
}

// liveFleet starts a live single-chip fleet with a pulse bus, closed when
// the test ends.
func liveFleet(t *testing.T) (*serve.Server, *pulse.Bus) {
	t.Helper()
	bus := pulse.New(pulse.Options{Ring: 1024})
	s, err := serve.NewServer(serve.Config{
		Chips: []serve.ChipConfig{{Model: "VGG11"}},
		Live:  true,
		Clock: clock.NewReal(),
		Pulse: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	return s, bus
}

// TestWatchStreamEndToEnd is the acceptance round-trip: serve traffic on a
// live fleet, then run the watch core against the real HTTP surface and
// require a rendered dashboard carrying the chip's row and fleet totals.
func TestWatchStreamEndToEnd(t *testing.T) {
	t.Parallel()
	s, bus, ts := watchTestServer(t)

	// Serve a little traffic so batch + decision events are in the ring
	// before the watcher connects (the SSE backfill then terminates the
	// stream via the -n budget without racing live publishes).
	serveAndSettle(t, s, ts.URL, 2)
	n := bus.LastSeq()
	if n < 3 {
		t.Fatalf("served traffic published only %d events", n)
	}

	var out bytes.Buffer
	if err := watchStream(ts.URL, "", 0, false, n, &out); err != nil {
		t.Fatalf("watchStream: %v", err)
	}
	frame := lastFrame(out.String())
	if !strings.Contains(frame, "odinserve fleet") || !strings.Contains(frame, "router=") {
		t.Fatalf("dashboard header missing:\n%s", frame)
	}
	if !strings.Contains(frame, "VGG11") {
		t.Fatalf("dashboard carries no chip row:\n%s", frame)
	}
	if !strings.Contains(frame, "fleet: served=2 ") {
		t.Fatalf("fleet totals wrong (want served=2):\n%s", frame)
	}
}

// TestWatchCountsBackfillOnce is the double-count regression: requests
// served before the watcher connects reach it both in /statusz and in the
// /events backfill, and the last frame must count them once, as /statusz
// does.
func TestWatchCountsBackfillOnce(t *testing.T) {
	t.Parallel()
	s, bus, ts := watchTestServer(t)
	const n = 3
	serveAndSettle(t, s, ts.URL, n)

	var out bytes.Buffer
	if err := watchStream(ts.URL, "", 0, false, bus.LastSeq(), &out); err != nil {
		t.Fatalf("watchStream: %v", err)
	}
	frame := lastFrame(out.String())
	st := getStatus(t, ts.URL)
	if got := served(st); got != n {
		t.Fatalf("/statusz reads served=%d after %d requests", got, n)
	}
	var sheds, reprograms uint64
	for _, c := range st.Chips {
		sheds += c.Sheds
		reprograms += c.Reprograms
	}
	for _, want := range []string{
		fmt.Sprintf(" events=%d ", st.Seq),
		fmt.Sprintf("fleet: served=%d sheds=%d ", n, sheds),
		fmt.Sprintf(" reprograms=%d ", reprograms),
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("last frame lacks %q, which /statusz reads:\n%s", want, frame)
		}
	}
}

// serveAndSettle serves n requests one after another and waits until
// /statusz shows them: a response is delivered before its batch event is
// published.
func serveAndSettle(t *testing.T, s *serve.Server, base string, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if resp := <-s.Submit("VGG11"); resp.Shed || resp.Err != "" {
			t.Fatalf("submit %d not served: %+v", i, resp)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for served(getStatus(t, base)) < n {
		if time.Now().After(deadline) {
			t.Fatalf("/statusz never showed %d served requests", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// lastFrame returns the last dashboard frame drawn into a watch output.
func lastFrame(out string) string {
	const clear = "\x1b[2J"
	if i := strings.LastIndex(out, clear); i >= 0 {
		return out[i+len(clear):]
	}
	return out
}

// getStatus decodes one GET /statusz body.
func getStatus(t *testing.T, base string) pulse.Status {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st pulse.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	return st
}

// served sums the requests a /statusz body reports served.
func served(st pulse.Status) uint64 {
	var n uint64
	for _, c := range st.Chips {
		n += c.Served
	}
	return n
}

// TestWatchStreamRawAndFilter pins raw mode (JSON lines, no ANSI frames)
// and server-side kind filtering.
func TestWatchStreamRawAndFilter(t *testing.T) {
	t.Parallel()
	s, bus, ts := watchTestServer(t)
	if resp := <-s.Submit("VGG11"); resp.Shed || resp.Err != "" {
		t.Fatalf("submit not served: %+v", resp)
	}
	evs := bus.Since(0)
	batches := 0
	for _, e := range evs {
		if e.Kind == pulse.KindBatch {
			batches++
		}
	}
	if batches == 0 {
		t.Fatal("no batch events to filter on")
	}

	var out bytes.Buffer
	if err := watchStream(ts.URL, "batch", 0, true, uint64(batches), &out); err != nil {
		t.Fatalf("watchStream: %v", err)
	}
	raw := strings.TrimSuffix(out.String(), "\n")
	// Raw mode ends with one rendered dashboard after the event budget;
	// every line before that must be a batch event JSON object.
	lines := strings.Split(raw, "\n")
	jsonLines := 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		jsonLines++
		if !strings.Contains(line, `"kind":"batch"`) {
			t.Fatalf("types=batch leaked a non-batch event: %s", line)
		}
	}
	if jsonLines != batches {
		t.Fatalf("raw mode printed %d events, want %d", jsonLines, batches)
	}
}

// TestWatchBadTypesRejected pins the client-side kind validation: an
// unknown kind fails before any connection is made.
func TestWatchBadTypesRejected(t *testing.T) {
	t.Parallel()
	if err := runWatch([]string{"-types", "bogus", "-addr", "http://127.0.0.1:0"}); err == nil {
		t.Fatal("runWatch with unknown kind succeeded")
	}
}

// TestReadSSE pins the frame parser against a hand-written stream:
// comments skipped, multi-field frames assembled, blank-line terminated.
func TestReadSSE(t *testing.T) {
	t.Parallel()
	stream := ": resume gap, 2 events evicted\n\n" +
		"id: 3\nevent: batch\ndata: {\"seq\":3}\n\n" +
		"id: 4\nevent: shed\ndata: {\"seq\":4}\n\n"
	var got []sseFrame
	err := readSSE(strings.NewReader(stream), func(f sseFrame) error {
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d frames, want 2 (comment must not count)", len(got))
	}
	if got[0].id != 3 || got[0].event != "batch" || string(got[0].data) != `{"seq":3}` {
		t.Fatalf("frame 0 = %+v", got[0])
	}
	if got[1].id != 4 || got[1].event != "shed" {
		t.Fatalf("frame 1 = %+v", got[1])
	}
}
