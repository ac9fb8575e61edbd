package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"odin/internal/pulse"
)

// maxInferBody bounds /infer request bodies. Inference submissions are a
// model name and a count; anything larger is a malformed client.
const maxInferBody = 1 << 16

// InferRequest is the JSON body of POST /infer. Count requests for Model
// are submitted together so the dispatcher can coalesce them into one
// decision pass. Count defaults to 1; the legacy ?model=NAME query form is
// accepted when the body is empty.
type InferRequest struct {
	Model  string `json:"model"`
	Count  int    `json:"count,omitempty"`
	Tenant string `json:"tenant,omitempty"` // admission class; see Config.Tenants
}

// InferReply is the JSON body of a successful POST /infer: one Response
// per submitted request, in submission order.
type InferReply struct {
	Responses []Response `json:"responses"`
}

// httpError is the JSON body of every non-2xx /infer response.
type httpError struct {
	Error string `json:"error"`
}

// HasModel reports whether any live chip of the fleet hosts the named
// model. Safe from any goroutine (the dispatcher maintains the index as
// chips are added and removed); necessarily advisory under churn — the
// authoritative check is the routing error on the submission itself.
func (s *Server) HasModel(name string) bool {
	s.modelsMu.RLock()
	defer s.modelsMu.RUnlock()
	return s.models[name] > 0
}

// Models lists the distinct models hosted by live chips, sorted.
func (s *Server) Models() []string {
	s.modelsMu.RLock()
	out := make([]string, 0, len(s.models))
	for name, n := range s.models {
		if n > 0 {
			out = append(out, name)
		}
	}
	s.modelsMu.RUnlock()
	sort.Strings(out)
	return out
}

// MaxBatch returns the per-pass coalescing cap the server was built with.
func (s *Server) MaxBatch() int { return s.cfg.MaxBatch }

// NewHandler exposes a started Server over HTTP:
//
//	POST /infer     submit 1..MaxBatch requests, JSON body or ?model=NAME
//	GET  /metrics   Prometheus text exposition
//	GET  /healthz   liveness probe
//
// Every /infer response, success or error, is JSON with Content-Type
// application/json. Error statuses: 405 (method), 400 (malformed body,
// missing model, non-positive count), 404 (model not hosted by the fleet),
// 413 (count exceeds MaxBatch), 429 (every submission shed by admission
// control), 503 (server draining).
//
// The server must be Live: non-live servers only retire batches on the
// dispatcher's arrival path, so a blocking handler would deadlock.
func NewHandler(s *Server) http.Handler {
	return NewHandlerOpts(s, HandlerOptions{})
}

// HandlerOptions extend NewHandler with the operator endpoints.
type HandlerOptions struct {
	// Debug registers the net/http/pprof profiling handlers under /debug/
	// pprof/. Off by default: profiling endpoints leak operational detail
	// and cost CPU, so live deployments must opt in (odinserve -debug).
	Debug bool
	// Admin registers the fleet control plane:
	//
	//	GET    /admin/fleet       JSON ChipInfo snapshot of every chip
	//	POST   /admin/chips       hot-add a chip {"model":"NAME","seed":N}
	//	DELETE /admin/chips/{id}  drain and remove chip id
	//
	// Off by default: mutating the fleet is an operator capability, so
	// live deployments must opt in (odinserve -admin).
	Admin bool
}

// NewHandlerOpts is NewHandler plus opt-in observability endpoints:
//
//	GET /debug/trace    Chrome trace-event JSON dump of the spans held
//	                    (Config.Tracer set; for a ring, the latest window)
//	GET /debug/pprof/   net/http/pprof profiling suite (opts.Debug set)
//	GET /events         live SSE telemetry stream (Config.Pulse set)
//	GET /statusz        JSON fleet series snapshot (Config.Pulse set)
//
// The pprof handlers are registered explicitly on the returned mux — the
// package's DefaultServeMux side-effect registrations are never served.
func NewHandlerOpts(s *Server, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) { s.handleInfer(w, r) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var sb strings.Builder
		if err := s.Registry().WritePrometheus(&sb); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, sb.String())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Explicit Content-Type before any write: the sniffing default is
		// what the PR-2 /infer fix removed, and it must be set before
		// WriteHeader on the 503 path or it is silently dropped.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Fail readiness the moment Close flips draining: /infer already
		// answers 503, and a healthy-looking drainer would keep fleet
		// front-ends routing traffic at a server that rejects it.
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Pulse.Enabled() {
		registerPulse(mux, s)
	}
	var h http.Handler = mux
	if opts.Admin {
		registerAdmin(mux, s)
		h = chipIDGuard(mux)
	}
	if s.cfg.Tracer.Enabled() {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			var sb strings.Builder
			if err := s.cfg.Tracer.WriteChromeTrace(&sb); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, sb.String())
		})
	}
	if opts.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h
}

// writeJSON emits one JSON response. The body is encoded before the
// status line goes out, so a body encoding/json refuses answers a JSON 500
// instead of the status with no body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(httpError{Error: fmt.Sprintf("odinserve: encoding the response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A write failure here means the client went away mid-write; nothing
	// sensible left to do.
	_, _ = w.Write(append(data, '\n'))
}

// MarshalJSON encodes a +Inf DeadlineAge as the string "+Inf", as pulse
// events quote it: JSON has no literal for it, and encoding/json refuses
// the value.
func (c ChipInfo) MarshalJSON() ([]byte, error) {
	type fields ChipInfo // ChipInfo without this method
	if !math.IsInf(c.DeadlineAge, 1) {
		return json.Marshal(fields(c))
	}
	return json.Marshal(struct {
		fields
		DeadlineAge string
	}{fields(c), "+Inf"})
}

// UnmarshalJSON reads what MarshalJSON writes, so a Go client can decode
// GET /admin/fleet: a DeadlineAge of "+Inf" is +Inf.
func (c *ChipInfo) UnmarshalJSON(data []byte) error {
	type fields ChipInfo // ChipInfo without this method
	var in struct {
		fields
		DeadlineAge json.RawMessage
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*c = ChipInfo(in.fields)
	switch string(in.DeadlineAge) {
	case "":
		return nil
	case `"+Inf"`:
		c.DeadlineAge = math.Inf(1)
		return nil
	}
	return json.Unmarshal(in.DeadlineAge, &c.DeadlineAge)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// parseInfer decodes the submission from the body, falling back to the
// legacy ?model=NAME query form when the body is empty. It validates
// everything that does not require the fleet: syntax, model presence, and
// count positivity.
func parseInfer(r *http.Request) (InferRequest, int, error) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxInferBody+1))
	if err != nil {
		return InferRequest{}, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	if len(raw) > maxInferBody {
		return InferRequest{}, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", maxInferBody)
	}
	req := InferRequest{Model: r.URL.Query().Get("model")}
	if len(strings.TrimSpace(string(raw))) > 0 {
		if err := json.Unmarshal(raw, &req); err != nil {
			return InferRequest{}, http.StatusBadRequest, fmt.Errorf("malformed JSON body: %v", err)
		}
	}
	if req.Model == "" {
		return InferRequest{}, http.StatusBadRequest,
			fmt.Errorf(`missing model: POST /infer {"model":"NAME"} or /infer?model=NAME`)
	}
	if req.Count < 0 {
		return InferRequest{}, http.StatusBadRequest, fmt.Errorf("count %d must be positive", req.Count)
	}
	if req.Count == 0 {
		req.Count = 1
	}
	return req, 0, nil
}

// adminAddRequest is the JSON body of POST /admin/chips.
type adminAddRequest struct {
	Model string `json:"model"`
	Seed  uint64 `json:"seed,omitempty"`
}

// adminAddReply is the JSON body of a successful POST /admin/chips.
type adminAddReply struct {
	ID int `json:"id"`
}

// registerAdmin wires the fleet control plane. Handlers use Go 1.22
// method+wildcard mux patterns, so mismatched methods get the mux's own
// 405s. Errors returned by the Server (AddChip/RemoveChip/FleetInfo)
// already carry the "serve:" package prefix, so they are written through
// verbatim; only handler-originated errors get the "odinserve:" prefix —
// re-prefixing produced doubled messages like "odinserve: odinserve:
// server is draining".
func registerAdmin(mux *http.ServeMux, s *Server) {
	mux.HandleFunc("GET /admin/fleet", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.FleetInfo()
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /admin/chips", func(w http.ResponseWriter, r *http.Request) {
		var req adminAddRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxInferBody)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "odinserve: malformed JSON body: %v", err)
			return
		}
		if req.Model == "" {
			writeError(w, http.StatusBadRequest, `odinserve: missing model: POST /admin/chips {"model":"NAME"}`)
			return
		}
		id, err := s.AddChip(ChipConfig{Model: req.Model, Seed: req.Seed})
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrDraining) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, adminAddReply{ID: id})
	})
	mux.HandleFunc("DELETE /admin/chips/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "odinserve: chip id %q is not a number", r.PathValue("id"))
			return
		}
		if err := s.RemoveChip(id); err != nil {
			status := http.StatusNotFound
			if errors.Is(err, ErrDraining) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Removed int `json:"removed"`
		}{Removed: id})
	})
}

// chipIDGuard answers DELETE /admin/chips/{id} itself when the id is "",
// "." or "..", or holds a slash, as the handler answers any other id that
// is not a number. The mux would answer some of these without calling the
// handler: "", "/" (sent as %2F) and ids spanning several path segments
// with a plain-text 404, "." and ".." with a redirect to the cleaned path.
func chipIDGuard(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutPrefix(r.URL.Path, "/admin/chips/")
		if ok && r.Method == http.MethodDelete && (id == "" || id == "." || id == ".." || strings.Contains(id, "/")) {
			writeError(w, http.StatusBadRequest, "odinserve: chip id %q is not a number", id)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// Statusz is the GET /statusz body: the pulse bus's fleet snapshot plus the
// routing policy, the drift margin it steers by (Config.DriftMargin, or
// DefaultDriftMargin) and whether the server is draining.
type Statusz struct {
	Router      string  `json:"router"`
	DriftMargin float64 `json:"drift_margin"`
	Draining    bool    `json:"draining"`
	pulse.Status
}

// registerPulse wires the streaming-telemetry surfaces, registered only
// when Config.Pulse carries a bus:
//
//	GET /events    Server-Sent Events stream of pulse events. ?types=a,b
//	               filters by kind; Last-Event-ID (or ?last_id=N) resumes
//	               from the bus's ring, best-effort — events older than
//	               the ring are gone, reported as a comment frame, and an
//	               id above the last one assigned streams the whole ring.
//	GET /statusz   one JSON snapshot of every chip's series tail.
//
// The stream carries no keepalive timer: serve code never reads a wall
// clock (the clockonly contract), so idle-connection hygiene belongs to
// proxies or the consumer, and `odinserve watch` simply blocks on read.
func registerPulse(mux *http.ServeMux, s *Server) {
	p := s.cfg.Pulse
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Statusz{s.RouterName(), s.margin, s.Draining(), p.Snapshot()})
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		kinds := pulse.AllKinds
		if spec := r.URL.Query().Get("types"); spec != "" {
			ks, err := pulse.ParseKinds(spec)
			if err != nil {
				writeError(w, http.StatusBadRequest, "odinserve: %v", err)
				return
			}
			kinds = ks
		}
		v, what := r.Header.Get("Last-Event-ID"), "Last-Event-ID"
		if v == "" {
			v, what = r.URL.Query().Get("last_id"), "last_id"
		}
		var last uint64
		if v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "odinserve: %s %q is not a number", what, v)
				return
			}
			last = n
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusInternalServerError, "odinserve: streaming unsupported by this connection")
			return
		}
		// Subscribe before the ring backfill, then dedup on sequence
		// numbers: an event published between the two shows up in both, and
		// the Seq <= last skip drops the channel copy.
		sub := p.Subscribe(256, kinds)
		defer sub.Close()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		var buf []byte
		// An id this bus never assigned, such as an EventSource's after a
		// server restart, would skip every event up to it: stream from the
		// oldest retained event instead, as for a fresh connection.
		if assigned := p.LastSeq(); last > assigned {
			fmt.Fprintf(w, ": unknown event id %d, last assigned %d; streaming from the oldest retained event\n\n", last, assigned)
			last = 0
		}
		// The ring holds consecutive ids, so the first retained event after
		// last shows any gap; one copy serves the check and the backfill.
		backfill := p.Since(last)
		if last > 0 && len(backfill) > 0 && backfill[0].Seq-1 > last {
			fmt.Fprintf(w, ": resume gap, %d events evicted\n\n", backfill[0].Seq-1-last)
		}
		for _, e := range backfill {
			if !kinds.Has(e.Kind) {
				continue
			}
			buf = e.AppendSSE(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return
			}
			last = e.Seq
		}
		fl.Flush()
		ctx := r.Context()
		for {
			select {
			case e := <-sub.C():
				if e.Seq <= last {
					continue
				}
				if n := sub.TakeDropped(); n > 0 {
					fmt.Fprintf(w, ": dropped %d events (slow consumer)\n\n", n)
				}
				buf = e.AppendSSE(buf[:0])
				if _, err := w.Write(buf); err != nil {
					return
				}
				last = e.Seq
				fl.Flush()
			case <-ctx.Done():
				return
			}
		}
	})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST /infer")
		return
	}
	req, status, err := parseInfer(r)
	if err != nil {
		writeError(w, status, "odinserve: %v", err)
		return
	}
	if !s.HasModel(req.Model) {
		writeError(w, http.StatusNotFound, "odinserve: model %q not hosted (fleet serves %s)",
			req.Model, strings.Join(s.Models(), ", "))
		return
	}
	if req.Count > s.MaxBatch() {
		writeError(w, http.StatusRequestEntityTooLarge,
			"odinserve: count %d exceeds the batch cap %d", req.Count, s.MaxBatch())
		return
	}

	// Submit everything before reading any response so the dispatcher can
	// coalesce the submissions into one decision pass.
	chans := make([]<-chan Response, req.Count)
	for i := range chans {
		chans[i] = s.SubmitAs(req.Model, req.Tenant)
	}
	reply := InferReply{Responses: make([]Response, req.Count)}
	allShed := true
	for i, ch := range chans {
		resp := <-ch
		reply.Responses[i] = resp
		if resp.Rejected {
			writeError(w, http.StatusServiceUnavailable, "odinserve: %v", ErrDraining)
			return
		}
		allShed = allShed && resp.Shed
	}
	status = http.StatusOK
	if allShed {
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, reply)
}
