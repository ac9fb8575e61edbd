package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
)

// postInfer drives one request through a fresh recorder.
func postInfer(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// decodeError asserts the JSON error contract every non-2xx /infer response
// follows: the declared status, Content-Type application/json, and a body
// of the form {"error": "..."} mentioning wantSubstr.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, wantSubstr string) {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status %d, want %d (body %q)", rec.Code, wantStatus, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type %q, want application/json", ct)
	}
	var e httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if e.Error == "" || !strings.Contains(e.Error, wantSubstr) {
		t.Fatalf("error %q does not mention %q", e.Error, wantSubstr)
	}
}

// TestHTTPInferRejections pins every /infer error path that never reaches
// the fleet: wrong method, malformed JSON, missing model, negative count,
// unknown model, oversized batch, oversized body. Each must answer with the
// documented status and a JSON error body.
func TestHTTPInferRejections(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{MaxBatch: 4})
	defer s.Close()
	cases := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"method-not-allowed", http.MethodGet, "/infer?model=tiny", "", http.StatusMethodNotAllowed, "POST"},
		{"malformed-json", http.MethodPost, "/infer", `{"model":`, http.StatusBadRequest, "malformed JSON"},
		{"json-wrong-type", http.MethodPost, "/infer", `{"model":42}`, http.StatusBadRequest, "malformed JSON"},
		{"missing-model", http.MethodPost, "/infer", "", http.StatusBadRequest, "missing model"},
		{"missing-model-empty-json", http.MethodPost, "/infer", `{}`, http.StatusBadRequest, "missing model"},
		{"negative-count", http.MethodPost, "/infer", `{"model":"tiny","count":-3}`, http.StatusBadRequest, "count -3"},
		{"unknown-model", http.MethodPost, "/infer", `{"model":"VGG999"}`, http.StatusNotFound, "tiny"},
		{"oversized-batch", http.MethodPost, "/infer", `{"model":"tiny","count":5}`, http.StatusRequestEntityTooLarge, "batch cap 4"},
		{"oversized-body", http.MethodPost, "/infer", `{"pad":"` + strings.Repeat("x", maxInferBody) + `"}`,
			http.StatusRequestEntityTooLarge, "bytes"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rec := postInfer(s, tc.method, tc.target, tc.body)
			decodeError(t, rec, tc.wantStatus, tc.wantSubstr)
			if tc.wantStatus == http.StatusMethodNotAllowed {
				if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
					t.Errorf("Allow header %q, want POST", allow)
				}
			}
		})
	}
}

// TestHTTPInferShed pins the 429 path: with the single chip busy and its
// queue full, a fresh submission is tail-dropped at admission, and the
// handler surfaces the all-shed batch as 429 with per-response shed flags.
func TestHTTPInferShed(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{QueueDepth: 1, MaxBatch: 1})
	// Occupy the chip (request 0 dispatches immediately) and fill the
	// depth-1 queue (request 1); the HTTP submission becomes request 2,
	// which admission control sheds synchronously — so the handler's
	// blocking read completes even on this non-live virtual-clock server.
	s.Submit("tiny")
	s.Submit("tiny")
	rec := postInfer(s, http.MethodPost, "/infer", `{"model":"tiny"}`)
	defer s.Close()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %q)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var reply InferReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Responses) != 1 || !reply.Responses[0].Shed {
		t.Fatalf("shed reply %+v, want one shed response", reply)
	}
}

// TestHTTPInferDraining pins the 503 path: after Close, submissions are
// rejected immediately and the handler maps the draining error to 503.
func TestHTTPInferDraining(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	s.Close()
	rec := postInfer(s, http.MethodPost, "/infer", `{"model":"tiny"}`)
	decodeError(t, rec, http.StatusServiceUnavailable, "draining")
}

// TestHTTPInferServes drives the success path end to end on a live fleet:
// JSON-body batch submission and the legacy query form both answer 200
// with served (non-shed, non-error) responses carrying legal decisions.
func TestHTTPInferServes(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Chips: []ChipConfig{{Custom: tinyModel("tiny")}},
		Live:  true,
		Clock: clock.NewReal(),
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	for _, tc := range []struct {
		name, target, body string
		want               int
	}{
		{"json-batch", "/infer", `{"model":"tiny","count":3}`, 3},
		{"query-form", "/infer?model=tiny", "", 1},
	} {
		rec := postInfer(s, http.MethodPost, tc.target, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 (body %q)", tc.name, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var reply InferReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Responses) != tc.want {
			t.Fatalf("%s: %d responses, want %d", tc.name, len(reply.Responses), tc.want)
		}
		for i, r := range reply.Responses {
			if r.Shed || r.Err != "" {
				t.Fatalf("%s: response %d not served: %+v", tc.name, i, r)
			}
			if len(r.Sizes) == 0 || !(r.Energy > 0) || !(r.Latency > 0) {
				t.Fatalf("%s: response %d carries degenerate run figures: %+v", tc.name, i, r)
			}
		}
	}
}

// TestHTTPMetricsAndHealthz pins the observability endpoints the live
// binary mounts next to /infer.
func TestHTTPMetricsAndHealthz(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	defer s.Close()
	h := NewHandler(s)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "odinserve_requests_total") {
		t.Fatalf("/metrics exposition misses serve counters:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("/healthz Content-Type %q, want explicit text/plain; charset=utf-8", ct)
	}
}

// TestServerModelAccessors pins the fleet-introspection accessors the HTTP
// layer routes with.
func TestServerModelAccessors(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 2, Config{MaxBatch: 4})
	defer s.Close()
	if !s.HasModel("tiny") {
		t.Error("HasModel(tiny) = false for a tiny fleet")
	}
	if s.HasModel("VGG999") {
		t.Error("HasModel(VGG999) = true")
	}
	if got := s.Models(); len(got) != 1 || got[0] != "tiny" {
		t.Errorf("Models() = %v, want [tiny]", got)
	}
	if got := s.MaxBatch(); got != 4 {
		t.Errorf("MaxBatch() = %d, want 4", got)
	}
}

// TestHTTPHealthzDraining is the satellite-2 regression: /healthz must
// fail readiness the moment Close flips draining — a healthy-looking
// drainer would keep front-ends routing at a server that rejects traffic.
func TestHTTPHealthzDraining(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	h := NewHandler(s)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("pre-drain /healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	s.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining /healthz body %q does not say draining", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("draining /healthz Content-Type %q, want explicit text/plain; charset=utf-8", ct)
	}
}

// TestHTTPAdminFleet exercises the opt-in control plane end to end:
// snapshot, hot add, remove, and the error paths.
func TestHTTPAdminFleet(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	h := NewHandlerOpts(s, HandlerOptions{Admin: true})
	do := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}

	rec := do(http.MethodGet, "/admin/fleet", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /admin/fleet = %d (%s)", rec.Code, rec.Body.String())
	}
	var info []ChipInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if len(info) != 1 || info[0].Model != "tiny" || info[0].Removed {
		t.Fatalf("fleet snapshot %+v, want one live tiny chip", info)
	}

	// Hot add from the model zoo.
	rec = do(http.MethodPost, "/admin/chips", `{"model":"VGG11","seed":9}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /admin/chips = %d (%s)", rec.Code, rec.Body.String())
	}
	var added adminAddReply
	if err := json.Unmarshal(rec.Body.Bytes(), &added); err != nil {
		t.Fatal(err)
	}
	if added.ID != 1 {
		t.Fatalf("added chip id %d, want 1", added.ID)
	}
	if !s.HasModel("VGG11") {
		t.Fatal("HasModel(VGG11) = false after hot add")
	}

	rec = do(http.MethodDelete, "/admin/chips/1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /admin/chips/1 = %d (%s)", rec.Code, rec.Body.String())
	}
	if s.HasModel("VGG11") {
		t.Fatal("HasModel(VGG11) = true after its only host was removed")
	}

	for _, tc := range []struct {
		name, method, target, body string
		want                       int
	}{
		{"add-unknown-model", http.MethodPost, "/admin/chips", `{"model":"VGG999"}`, http.StatusBadRequest},
		{"add-missing-model", http.MethodPost, "/admin/chips", `{}`, http.StatusBadRequest},
		{"add-malformed", http.MethodPost, "/admin/chips", `{`, http.StatusBadRequest},
		{"remove-unknown-id", http.MethodDelete, "/admin/chips/99", "", http.StatusNotFound},
		{"remove-twice", http.MethodDelete, "/admin/chips/1", "", http.StatusNotFound},
		{"remove-non-numeric", http.MethodDelete, "/admin/chips/x", "", http.StatusBadRequest},
		{"remove-dot-dot", http.MethodDelete, "/admin/chips/..", "", http.StatusBadRequest},
		{"remove-two-segments", http.MethodDelete, "/admin/chips/1/2", "", http.StatusBadRequest},
	} {
		if rec := do(tc.method, tc.target, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}

	// Without the opt-in the control plane does not exist.
	plain := NewHandler(s)
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/fleet", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /admin/fleet without Admin = %d, want 404", rec.Code)
	}

	s.Close()
	if rec := do(http.MethodPost, "/admin/chips", `{"model":"VGG11"}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("add while draining = %d, want 503", rec.Code)
	}
	if rec := do(http.MethodDelete, "/admin/chips/0", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("remove while draining = %d, want 503", rec.Code)
	}
	if rec := do(http.MethodGet, "/admin/fleet", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("fleet snapshot while draining = %d, want 503", rec.Code)
	}
}

// TestHTTPAdminFleetNeverForced serves one chip on a device without drift
// (Nu = 0), whose forced-reprogram deadline is +Inf: GET /admin/fleet must
// answer 200 with a body that decodes, carrying the deadline as "+Inf" the
// way pulse events quote it, and that decodes into []ChipInfo with the
// deadline back at +Inf.
func TestHTTPAdminFleetNeverForced(t *testing.T) {
	t.Parallel()
	sys := core.DefaultSystem()
	sys.Device.Nu = 0
	sys.Acc.Device.Nu = 0
	s, _ := tinyServer(t, 1, Config{System: &sys})
	defer s.Close()
	rec := httptest.NewRecorder()
	NewHandlerOpts(s, HandlerOptions{Admin: true}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/fleet", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /admin/fleet = %d (%s)", rec.Code, rec.Body.String())
	}
	var rows []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("body %q does not decode: %v", rec.Body.String(), err)
	}
	if len(rows) != 1 || rows[0]["DeadlineAge"] != "+Inf" || rows[0]["Model"] != "tiny" {
		t.Fatalf("fleet snapshot %v, want one tiny chip with DeadlineAge \"+Inf\"", rows)
	}
	var info []ChipInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("body %q does not decode into []ChipInfo: %v", rec.Body.String(), err)
	}
	want, err := s.FleetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, want) || !math.IsInf(info[0].DeadlineAge, 1) {
		t.Fatalf("decoded %+v, want %+v with DeadlineAge +Inf", info, want)
	}
}

// TestWriteJSONEncodeFailure pins that a body encoding/json refuses never
// goes out as the requested status with an empty body: the client gets a
// JSON 500 naming the failure.
func TestWriteJSONEncodeFailure(t *testing.T) {
	t.Parallel()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	decodeError(t, rec, http.StatusInternalServerError, "unsupported value")
}

// TestHTTPAdminMethodNotAllowed pins the 405 contract of the control
// plane: the admin routes are registered with Go 1.22 method patterns, so
// a wrong verb on a known path answers 405, not 404.
func TestHTTPAdminMethodNotAllowed(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	defer s.Close()
	h := NewHandlerOpts(s, HandlerOptions{Admin: true})
	for _, tc := range []struct{ method, target string }{
		{http.MethodPost, "/admin/fleet"},
		{http.MethodDelete, "/admin/fleet"},
		{http.MethodGet, "/admin/chips"},
		{http.MethodDelete, "/admin/chips"},
		{http.MethodPost, "/admin/chips/0"},
		{http.MethodGet, "/admin/chips/0"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.target, rec.Code)
		}
	}
}
