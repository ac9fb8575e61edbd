package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

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
	for i := 0; i < 2; i++ {
		if resp := <-s.Submit("VGG11"); resp.Shed || resp.Err != "" {
			t.Fatalf("submit %d not served: %+v", i, resp)
		}
	}
	n := bus.LastSeq()
	if n < 3 {
		t.Fatalf("served traffic published only %d events", n)
	}

	var out bytes.Buffer
	if err := watchStream(ts.URL, "", 0, false, n, &out); err != nil {
		t.Fatalf("watchStream: %v", err)
	}
	frame := out.String()
	if !strings.Contains(frame, "odinserve fleet") || !strings.Contains(frame, "router=") {
		t.Fatalf("dashboard header missing:\n%s", frame)
	}
	if !strings.Contains(frame, "VGG11") {
		t.Fatalf("dashboard carries no chip row:\n%s", frame)
	}
	if !strings.Contains(frame, "fleet: served=2") {
		t.Fatalf("fleet totals wrong (want served=2):\n%s", frame)
	}
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

// TestInfFloatDecode pins the quoted non-finite convention the event JSON
// uses for deadline fields.
func TestInfFloatDecode(t *testing.T) {
	t.Parallel()
	var v struct {
		D infFloat `json:"deadline"`
	}
	if err := json.Unmarshal([]byte(`{"deadline":2.5}`), &v); err != nil {
		t.Fatal(err)
	}
	if float64(v.D) != 2.5 {
		t.Fatalf("plain float decoded to %g", float64(v.D))
	}
	if err := json.Unmarshal([]byte(`{"deadline":"+Inf"}`), &v); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(v.D), 1) {
		t.Fatalf("quoted +Inf decoded to %g", float64(v.D))
	}
	if err := json.Unmarshal([]byte(`{"deadline":"nope"}`), &v); err == nil {
		t.Fatal("garbage quoted float decoded")
	}
}
