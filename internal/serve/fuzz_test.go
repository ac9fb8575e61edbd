package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"odin/internal/clock"
	"odin/internal/pulse"
)

// FuzzParseInfer pins the /infer decoding contract on arbitrary bodies and
// ?model= values: parseInfer either rejects the submission with 400 or 413
// and an error, or returns a request naming a model with a count of at
// least 1. Its seed inputs are the files in testdata/fuzz/FuzzParseInfer.
func FuzzParseInfer(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, model string) {
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/infer", RawQuery: url.Values{"model": {model}}.Encode()},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		req, status, err := parseInfer(r)
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected with status %d, want 400 or 413 (err %v)", status, err)
			}
			return
		}
		if req.Model == "" || req.Count < 1 {
			t.Fatalf("accepted %+v (status %d): want a model and a count of at least 1", req, status)
		}
	})
}

// FuzzAdminChips pins the fleet control plane's contract on arbitrary
// POST /admin/chips bodies and DELETE /admin/chips/{id} ids, sent to a
// started one-chip fleet on a virtual clock, or to one that is draining:
// each success adds exactly one FleetInfo row or marks exactly one row
// removed, and changes nothing else; each failure answers 400, 404 or 503
// with a JSON error body and changes nothing. The id is deleted twice, so
// removing a removed chip is covered, and every id counts, "", ".", ".."
// and "/" included. Its seed inputs are the files in
// testdata/fuzz/FuzzAdminChips.
func FuzzAdminChips(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, id string, draining bool) {
		s, err := NewServer(Config{Clock: clock.NewVirtual(0), Chips: []ChipConfig{{Custom: tinyModel("tiny")}}})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Close()
		if draining {
			s.Close()
		}
		h := NewHandlerOpts(s, HandlerOptions{Admin: true})
		rows := adminRows(t, s, draining)

		post := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/admin/chips"},
			Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
		var asked adminAddRequest
		_ = json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxInferBody)).Decode(&asked) // a 200 must have decoded
		var added adminAddReply
		rows = checkAdminCall(t, s, h, post, rows, draining, &added, func(before, after []ChipInfo) bool {
			return added.ID == len(before) && len(after) == len(before)+1 &&
				after[added.ID].ID == added.ID && after[added.ID].Model == asked.Model && !after[added.ID].Removed &&
				reflect.DeepEqual(before, after[:len(before)])
		})
		for range 2 {
			del := &http.Request{Method: http.MethodDelete,
				URL:    &url.URL{Path: "/admin/chips/" + id, RawPath: "/admin/chips/" + url.PathEscape(id)},
				Header: http.Header{}, Body: http.NoBody}
			var removed struct{ Removed int }
			rows = checkAdminCall(t, s, h, del, rows, draining, &removed, func(before, after []ChipInfo) bool {
				n := removed.Removed
				if want, err := strconv.Atoi(id); err != nil || n != want {
					return false
				}
				if len(after) != len(before) || n < 0 || n >= len(before) || before[n].Removed || !after[n].Removed {
					return false
				}
				return reflect.DeepEqual(before[:n], after[:n]) && reflect.DeepEqual(before[n+1:], after[n+1:])
			})
		}
	})
}

// checkAdminCall serves one admin request and checks it against the
// contract: a 200 decodes into reply and passes changed(before, after),
// any other status is 400, 404 or 503 with a JSON error body and leaves
// the rows as they were. It returns the rows after the call.
func checkAdminCall(t *testing.T, s *Server, h http.Handler, r *http.Request, before []ChipInfo,
	draining bool, reply any, changed func(before, after []ChipInfo) bool) []ChipInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	after := adminRows(t, s, draining)
	what := r.Method + " " + r.URL.EscapedPath()
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
			t.Fatalf("%s: 200 with undecodable body %q: %v", what, rec.Body, err)
		}
		if draining || !changed(before, after) {
			t.Fatalf("%s: 200 %s, but the fleet went from\n%+v\nto\n%+v", what, rec.Body, before, after)
		}
		return after
	}
	switch rec.Code {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusServiceUnavailable:
	default:
		t.Fatalf("%s: status %d (%s), want 200, 400, 404 or 503", what, rec.Code, rec.Body)
	}
	var e httpError
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: %d with Content-Type %q, want a JSON error body", what, rec.Code, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("%s: %d with body %q, want a JSON error body (%v)", what, rec.Code, rec.Body, err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("%s: failed with %d (%s), but the fleet went from\n%+v\nto\n%+v", what, rec.Code, e.Error, before, after)
	}
	return after
}

// adminRows is the fleet's FleetInfo snapshot; once the server drains,
// which refuses FleetInfo, it is the same rows from Stats.
func adminRows(t *testing.T, s *Server, draining bool) []ChipInfo {
	t.Helper()
	if draining {
		return s.Stats()
	}
	info, err := s.FleetInfo()
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// FuzzEventsResume pins GET /events's resume contract on arbitrary
// Last-Event-ID headers and ?last_id= values, sent to a bus that has
// assigned 7 events and retains the last 4, with a pre-cancelled request
// context so that only the ring backfill is written. The header wins when
// it is non-empty. A value that is not a decimal uint64 gets a 400; any
// other request streams exactly the retained events with a sequence
// number above the value, or all of them, after a comment, when the value
// is above the last number assigned. A resume-gap comment appears exactly
// when a known value lies before the oldest retained event. Its seed
// inputs are the files in testdata/fuzz/FuzzEventsResume.
func FuzzEventsResume(f *testing.F) {
	s, bus, _ := pulseServer(f, pulse.Options{Ring: 4})
	defer s.Close()
	for i := 1; i <= 7; i++ {
		bus.Publish(pulse.Event{Time: float64(i), Kind: pulse.KindBatch, Chip: 0,
			Model: "tiny", Batch: uint64(i), Size: 1, Latency: 0.01, Deadline: 10})
	}
	h := NewHandler(s)
	retained, assigned := bus.Since(0), bus.LastSeq()
	f.Fuzz(func(t *testing.T, header, query string) {
		v := header
		if v == "" {
			v = query
		}
		rec := getEvents(t, h, "/events?"+url.Values{"last_id": {query}}.Encode(), map[string]string{"Last-Event-ID": header})
		last, ok := decimalUint64(v)
		if v != "" && !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("id %q: status %d (%s), want 400", v, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("id %q: status %d (%s), want 200", v, rec.Code, rec.Body)
		}
		body := rec.Body.String()
		unknown := last > assigned
		if got := strings.HasPrefix(body, ": unknown event id "); got != unknown {
			t.Fatalf("id %q: unknown-id comment %v, want %v:\n%s", v, got, unknown, body)
		}
		if unknown {
			last = 0
		}
		gap := last > 0 && retained[0].Seq-1 > last
		if got := strings.Contains(body, ": resume gap, "); got != gap {
			t.Fatalf("id %q: resume-gap comment %v, want %v:\n%s", v, got, gap, body)
		}
		if gap && !strings.Contains(body, fmt.Sprintf(": resume gap, %d events evicted\n", retained[0].Seq-1-last)) {
			t.Fatalf("id %q: resume-gap comment counts the wrong events:\n%s", v, body)
		}
		var want []string
		for _, e := range retained {
			if e.Seq > last {
				want = append(want, strconv.FormatUint(e.Seq, 10))
			}
		}
		var got []string
		for _, line := range strings.Split(body, "\n") {
			if id, ok := strings.CutPrefix(line, "id: "); ok {
				got = append(got, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("id %q: streamed events %v, want %v:\n%s", v, got, want, body)
		}
	})
}

// decimalUint64 parses s as a non-empty run of ASCII digits whose value
// fits in a uint64, independently of strconv.
func decimalUint64(s string) (uint64, bool) {
	var n uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if s[i] < '0' || s[i] > '9' || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, s != ""
}
