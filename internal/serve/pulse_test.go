package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"odin/internal/check"
	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/obs"
	"odin/internal/pulse"
)

// pulseReplay is fleetReplay with an unbounded pulse bus attached: it
// replays tr through a fresh fleet and returns the bus alongside the
// replay result so tests can inspect the canonical event log.
func pulseReplay(t testing.TB, tr Trace, chips, workers int, ops []FleetOp) (ReplayResult, *pulse.Bus) {
	t.Helper()
	return pulseReplayWith(t, tr, chips, workers, ops, core.ControllerOptions{})
}

// pulseReplayWith is pulseReplay with the given controller options.
func pulseReplayWith(t testing.TB, tr Trace, chips, workers int, ops []FleetOp, ctrl core.ControllerOptions) (ReplayResult, *pulse.Bus) {
	t.Helper()
	clk := clock.NewVirtual(0)
	bus := pulse.New(pulse.Options{})
	cfg := Config{
		Clock:      clk,
		QueueDepth: 4,
		MaxBatch:   4,
		Workers:    workers,
		Router:     "rr",
		Pulse:      bus,
		Controller: ctrl,
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(i) + 1})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return ReplayOps(s, clk, tr, ops), bus
}

// pulseChurnTrace is the standard pulse workload: an overload trace across
// a 2-chip fleet with the usual churn schedule, sized to exercise every
// event kind (batches, decisions, queue sheds, hot add/remove lifecycle).
func pulseChurnTrace(t testing.TB) (Trace, []FleetOp) {
	t.Helper()
	lat := probeLatency(t)
	const chips, n = 2, 24
	tr, err := GenTrace(TraceConfig{
		Seed:     7,
		Rate:     8 * float64(chips) / lat,
		Requests: n,
		Models:   []string{"tiny"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, churnOps(n, chips)
}

// TestPulseLogGolden pins the canonical event log of a small churned
// replay byte-for-byte: stable sequence numbering, per-kind key order,
// float formatting, and the (time, chip, kind) sort. Regenerate with
// `go test -run TestPulseLogGolden -update ./internal/serve/`.
func TestPulseLogGolden(t *testing.T) {
	t.Parallel()
	tr, ops := pulseChurnTrace(t)
	res, bus := pulseReplay(t, tr, 2, 1, ops)
	if res.Admitted == 0 || res.Shed == 0 {
		t.Fatalf("churn trace must both serve and shed (admitted %d, shed %d)",
			res.Admitted, res.Shed)
	}
	var log bytes.Buffer
	if err := bus.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	check.Golden(t, "testdata/pulse_log.golden", log.Bytes())
}

// TestPropPulseWorkerInvariance is the tentpole determinism property: the
// canonical pulse log of a churned overload replay is byte-identical at
// workers 1 and 8. Every published field must therefore be a pure function
// of virtual time and per-chip batch order — a scheduling-dependent value
// (live seq, dispatcher-observed queue depth, cache attribution) diffs
// here immediately.
func TestPropPulseWorkerInvariance(t *testing.T) {
	t.Parallel()
	tr, ops := pulseChurnTrace(t)

	base, baseBus := pulseReplay(t, tr, 2, 1, ops)
	var baseLog bytes.Buffer
	if err := baseBus.WriteLog(&baseLog); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"lifecycle", "batch", "decision", "shed"} {
		if !strings.Contains(baseLog.String(), `"kind":"`+kind+`"`) {
			t.Errorf("churn pulse log carries no %s events; property vacuous for that kind", kind)
		}
	}

	got, gotBus := pulseReplay(t, tr, 2, 8, ops)
	if got.Checksum != base.Checksum {
		t.Fatalf("replay checksum diverged: workers=8 %#x, workers=1 %#x", got.Checksum, base.Checksum)
	}
	var gotLog bytes.Buffer
	if err := gotBus.WriteLog(&gotLog); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog.Bytes(), baseLog.Bytes()) {
		t.Errorf("pulse log differs between workers 1 and 8:\n%s",
			check.DiffLines(baseLog.String(), gotLog.String()))
	}
}

// TestPulseSnapshotAfterReplay sanity-checks the series side under a real
// replay: every live chip accumulates batches, the removed chip is marked,
// and fleet totals line up with the replay result.
func TestPulseSnapshotAfterReplay(t *testing.T) {
	t.Parallel()
	tr, ops := pulseChurnTrace(t)
	res, bus := pulseReplay(t, tr, 2, 1, ops)
	st := bus.Snapshot()
	if len(st.Chips) != 4 { // 2 seed + 2 hot-added
		t.Fatalf("snapshot has %d chips, want 4", len(st.Chips))
	}
	var served uint64
	removed := 0
	for _, c := range st.Chips {
		served += c.Served
		if c.Removed {
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("snapshot marks %d chips removed, want 1", removed)
	}
	if served != uint64(res.Admitted) {
		t.Fatalf("snapshot served %d, replay admitted %d", served, res.Admitted)
	}
	if st.Seq == 0 || st.Time <= 0 {
		t.Fatalf("snapshot head = seq %d t %g", st.Seq, st.Time)
	}
}

// TestPulseDecisionsWithAudit replays the churn trace on a fleet whose
// controllers record their own decision audit: every batch still publishes
// its decision event, and the pulse log is the one a fleet without the
// audit writes.
func TestPulseDecisionsWithAudit(t *testing.T) {
	t.Parallel()
	tr, ops := pulseChurnTrace(t)
	_, plainBus := pulseReplay(t, tr, 2, 1, ops)
	audit := obs.NewAuditLog()
	_, bus := pulseReplayWith(t, tr, 2, 1, ops, core.ControllerOptions{Audit: audit})
	var plain, got bytes.Buffer
	if err := plainBus.WriteLog(&plain); err != nil {
		t.Fatal(err)
	}
	if err := bus.WriteLog(&got); err != nil {
		t.Fatal(err)
	}
	batches := strings.Count(got.String(), `"kind":"batch"`)
	decisions := strings.Count(got.String(), `"kind":"decision"`)
	if batches == 0 || decisions != batches || len(audit.Runs()) != batches {
		t.Fatalf("%d batch events, %d decision events and %d audited runs, want one decision and one run per batch",
			batches, decisions, len(audit.Runs()))
	}
	if !bytes.Equal(got.Bytes(), plain.Bytes()) {
		t.Errorf("pulse log with a controller audit differs from the log without:\n%s",
			check.DiffLines(plain.String(), got.String()))
	}
}

// TestHTTPEventsResumeAtNewestCopiesNothing bounds the memory one GET
// /events costs when it resumes at the newest id of a full ring of
// `odinserve serve`'s default 8,192 events: the handler copies only the
// events it streams, here none, not the whole ring.
func TestHTTPEventsResumeAtNewestCopiesNothing(t *testing.T) {
	// Not parallel: TotalAlloc counts every goroutine's allocations.
	s, bus, _ := pulseServer(t, pulse.Options{Ring: 8192})
	defer s.Close()
	for i := 1; i <= 8192; i++ {
		bus.Publish(pulse.Event{Time: float64(i), Kind: pulse.KindBatch, Chip: 0,
			Model: "tiny", Batch: uint64(i), Size: 1, Latency: 0.01, Deadline: 10})
	}
	h := NewHandler(s)
	hdr := map[string]string{"Last-Event-ID": strconv.FormatUint(bus.LastSeq(), 10)}
	getEvents(t, h, "/events", hdr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := getEvents(t, h, "/events", hdr)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "id: ") {
		t.Fatalf("resume at the newest id: status %d, body %q; want 200 and no events", rec.Code, rec.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("resume at the newest id allocated %d B, want under 1 MiB (the 8,192-event ring is not copied)", n)
	}
}

// pulseServer builds a started tiny fleet with a pulse bus mounted, for
// HTTP-surface tests.
func pulseServer(t testing.TB, busOpts pulse.Options) (*Server, *pulse.Bus, *clock.Virtual) {
	t.Helper()
	bus := pulse.New(busOpts)
	s, clk := tinyServer(t, 1, Config{QueueDepth: 4, MaxBatch: 4, Pulse: bus})
	return s, bus, clk
}

// getEvents performs one GET /events round-trip whose streaming loop is
// terminated by a pre-cancelled request context: the handler writes the
// ring backfill, enters its select, sees ctx.Done, and returns.
func getEvents(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHTTPEventsStream pins the SSE surface: valid frames, kind filtering,
// Last-Event-ID resume (header and ?last_id), the resume-gap comment on
// ring eviction, ids the bus never assigned, and the 400 paths.
func TestHTTPEventsStream(t *testing.T) {
	t.Parallel()
	s, bus, _ := pulseServer(t, pulse.Options{Ring: 4})
	defer s.Close()
	h := NewHandler(s)

	// Publish a known event stream directly: 6 batches on one ring of 4
	// evicts the first two.
	for i := 1; i <= 6; i++ {
		bus.Publish(pulse.Event{Time: float64(i), Kind: pulse.KindBatch, Chip: 0,
			Model: "tiny", Batch: uint64(i), Size: 1, Latency: 0.01, Deadline: 10})
	}
	bus.Publish(pulse.Event{Time: 7, Kind: pulse.KindShed, Chip: -1, Model: "tiny",
		Request: 9, Reason: "queue"})

	rec := getEvents(t, h, "/events", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events = %d (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	body := rec.Body.String()
	if got := strings.Count(body, "\nevent: "); got != 4 { // 5 ring events, first has no leading \n
		t.Fatalf("frame count wrong in:\n%s", body)
	}
	if !strings.HasPrefix(body, "id: 4\nevent: batch\ndata: {\"seq\":4,") {
		t.Fatalf("first frame not the oldest retained event:\n%s", body)
	}
	if !strings.Contains(body, "event: shed\ndata: {\"seq\":7,") {
		t.Fatalf("shed frame missing:\n%s", body)
	}

	// Kind filter: the handler filters the backfill Since copies.
	rec = getEvents(t, h, "/events?types=shed", nil)
	body = rec.Body.String()
	if strings.Count(body, "id: ") != 1 || !strings.HasPrefix(body, "id: 7\nevent: shed\n") {
		t.Fatalf("types=shed did not stream the one shed event alone:\n%s", body)
	}

	// Resume via Last-Event-ID skips already-seen events.
	rec = getEvents(t, h, "/events", map[string]string{"Last-Event-ID": "6"})
	body = rec.Body.String()
	if strings.Contains(body, "\"seq\":6,") || !strings.Contains(body, "\"seq\":7,") {
		t.Fatalf("Last-Event-ID resume wrong:\n%s", body)
	}

	// Resume from before the ring reports the gap as a comment.
	rec = getEvents(t, h, "/events?last_id=1", nil)
	body = rec.Body.String()
	if !strings.Contains(body, ": resume gap, 2 events evicted") {
		t.Fatalf("resume gap comment missing:\n%s", body)
	}

	// An id the bus never assigned (it has assigned 7) streams every retained
	// event after a comment, as a fresh connection would; the largest
	// uint64 must not wrap into a false resume gap.
	for _, id := range []string{"8", "100", "18446744073709551615"} {
		rec = getEvents(t, h, "/events", map[string]string{"Last-Event-ID": id})
		body = rec.Body.String()
		if rec.Code != http.StatusOK || !strings.HasPrefix(body, ": unknown event id "+id+", last assigned 7;") ||
			strings.Contains(body, "resume gap") || strings.Count(body, "id: ") != 4 ||
			!strings.Contains(body, "id: 4\nevent: batch\n") || !strings.Contains(body, "\"seq\":7,") {
			t.Fatalf("Last-Event-ID %s = %d, want the unknown-id comment and the 4 retained events:\n%s", id, rec.Code, body)
		}
	}
	if body = getEvents(t, h, "/events?last_id=100", nil).Body.String(); strings.Count(body, "id: ") != 4 {
		t.Fatalf("last_id=100 streamed the wrong frames:\n%s", body)
	}

	// Error paths.
	if rec := getEvents(t, h, "/events?types=bogus", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("types=bogus = %d, want 400", rec.Code)
	}
	if rec := getEvents(t, h, "/events?last_id=x", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("last_id=x = %d, want 400", rec.Code)
	}
	if rec := getEvents(t, h, "/events", map[string]string{"Last-Event-ID": "x"}); rec.Code != http.StatusBadRequest {
		t.Errorf("Last-Event-ID=x = %d, want 400", rec.Code)
	}
}

// TestHTTPStatusz pins the snapshot surface: router identity, draining
// flag, and per-chip series rows.
func TestHTTPStatusz(t *testing.T) {
	t.Parallel()
	s, bus, _ := pulseServer(t, pulse.Options{})
	h := NewHandler(s)
	bus.Publish(pulse.Event{Time: 0.5, Kind: pulse.KindBatch, Chip: 0, Model: "tiny",
		Batch: 1, Size: 2, Latency: 0.01, Deadline: 10})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /statusz = %d (%s)", rec.Code, rec.Body.String())
	}
	var st struct {
		Router   string `json:"router"`
		Draining bool   `json:"draining"`
		pulse.Status
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz not JSON: %v (%s)", err, rec.Body.String())
	}
	if st.Router == "" || st.Draining {
		t.Fatalf("statusz head = %+v", st)
	}
	if len(st.Chips) != 1 || st.Chips[0].Model != "tiny" || st.Chips[0].Served != 2 {
		t.Fatalf("statusz chips = %+v", st.Chips)
	}

	s.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("draining /statusz = %d, want 200 (read-only surface stays up)", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("statusz does not report draining after Close")
	}
}

// TestPulseRejectEvent pins the draining shed: submissions rejected after
// Close publish a fleet-level reject event with no request id.
func TestPulseRejectEvent(t *testing.T) {
	t.Parallel()
	s, bus, _ := pulseServer(t, pulse.Options{})
	s.Close()
	resp := <-s.Submit("tiny")
	if !resp.Rejected {
		t.Fatalf("submit after Close = %+v, want rejected", resp)
	}
	evs := bus.Since(0)
	if len(evs) != 1 || evs[0].Kind != pulse.KindShed || evs[0].Reason != "reject" || evs[0].Chip != -1 {
		t.Fatalf("reject events = %+v, want one fleet-level reject shed", evs)
	}
	if got := string(evs[0].AppendJSON(nil)); !strings.Contains(got, `"request":null`) {
		t.Fatalf("reject event JSON %s must carry request:null", got)
	}
}

// TestPulseDisabledSurfaces pins that without a bus the pulse endpoints do
// not exist: /events and /statusz 404 on a plain server.
func TestPulseDisabledSurfaces(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	defer s.Close()
	h := NewHandler(s)
	for _, target := range []string{"/events", "/statusz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without Pulse = %d, want 404", target, rec.Code)
		}
	}
}

// TestErrDrainingSentinel is the satellite-1 regression: every draining
// rejection must satisfy errors.Is(err, ErrDraining) so handlers never
// string-match, while the wire bytes stay what clients already parse.
func TestErrDrainingSentinel(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	s.Close()
	if _, err := s.AddChip(ChipConfig{Custom: tinyModel("tiny")}); err == nil {
		t.Fatal("AddChip after Close succeeded")
	} else if !isDraining(err) {
		t.Fatalf("AddChip draining error %v fails errors.Is(ErrDraining)", err)
	} else if want := "serve: server is draining"; err.Error() != want {
		t.Fatalf("draining error bytes %q, want %q", err.Error(), want)
	}
	if err := s.RemoveChip(0); err == nil {
		t.Fatal("RemoveChip after Close succeeded")
	} else if !isDraining(err) {
		t.Fatalf("RemoveChip draining error %v fails errors.Is(ErrDraining)", err)
	}
	if _, err := s.FleetInfo(); !isDraining(err) {
		t.Fatalf("FleetInfo draining error %v fails errors.Is(ErrDraining)", err)
	}
}

func isDraining(err error) bool { return errors.Is(err, ErrDraining) }
