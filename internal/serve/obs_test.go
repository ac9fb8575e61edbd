package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odin/internal/clock"
	"odin/internal/obs"
)

// tracedReplay replays tr through a fresh traced fleet and returns the
// replay result plus the canonical Chrome trace dump.
func tracedReplay(t *testing.T, tr Trace, chips, workers int) (ReplayResult, []byte) {
	t.Helper()
	clk := clock.NewVirtual(0)
	cfg := Config{
		Clock:      clk,
		QueueDepth: 4,
		MaxBatch:   4,
		Workers:    workers,
		Tracer:     obs.New(),
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(i) + 1})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	res := Replay(s, clk, tr)
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestReplayTraceByteIdenticalAcrossWorkers is the observability half of
// the serve determinism contract: the exported span dump — not just the
// decision checksum — must not depend on worker count or on when the
// dispatcher happened to observe completions.
func TestReplayTraceByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	tr := overloadTrace(t, 120)
	res1, dump1 := tracedReplay(t, tr, 2, 1)
	res8, dump8 := tracedReplay(t, tr, 2, 8)
	if res1.Checksum != res8.Checksum {
		t.Fatalf("decision checksums diverged: %#x vs %#x", res1.Checksum, res8.Checksum)
	}
	if !bytes.Equal(dump1, dump8) {
		t.Fatalf("span dumps diverged across worker counts (%d vs %d bytes)",
			len(dump1), len(dump8))
	}
	for _, name := range []string{`"batch"`, `"request"`, `"run"`, `"layer"`, `"noc"`} {
		if !bytes.Contains(dump1, []byte(name)) {
			t.Fatalf("trace dump misses %s spans", name)
		}
	}
}

// TestHandlerDebugEndpoints pins the opt-in contract: neither pprof nor the
// trace dump is reachable unless explicitly enabled, the dump by the
// fleet's Config.Tracer and pprof by HandlerOptions.Debug.
func TestHandlerDebugEndpoints(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	defer s.Close()

	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	plain := NewHandler(s)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/trace"} {
		if rec := get(plain, path); rec.Code != http.StatusNotFound {
			t.Fatalf("%s exposed without opt-in: %d", path, rec.Code)
		}
	}

	spans := obs.NewRing(16)
	spans.At("seedspan", 0, 0, 1, nil)
	traced, _ := tinyServer(t, 1, Config{Tracer: spans})
	defer traced.Close()
	debug := NewHandlerOpts(traced, HandlerOptions{Debug: true})
	if rec := get(debug, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -debug: %d", rec.Code)
	}
	rec := get(debug, "/debug/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/trace content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "seedspan") {
		t.Fatalf("/debug/trace misses recorded span:\n%s", rec.Body.String())
	}

	// Tracer without Debug: trace dump on, pprof still off.
	traceOnly := NewHandler(traced)
	if rec := get(traceOnly, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof exposed by Tracer alone: %d", rec.Code)
	}
	if rec := get(traceOnly, "/debug/trace"); rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace with tracer: %d", rec.Code)
	}
}
