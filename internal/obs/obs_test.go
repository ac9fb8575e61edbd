package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.At("y", 0, 1, 2, nil); got != nil {
		t.Fatal("nil tracer At returned a span")
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracer holds spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil tracer chrome trace not valid JSON: %s", buf.String())
	}
	if rows := tr.FlameSummary(); rows != nil {
		t.Fatalf("nil tracer flame summary: %v", rows)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	t.Parallel()
	tr := NewRing(3)
	for i := 0; i < 5; i++ {
		tr.At("s", 0, float64(i), float64(i)+1, nil, Int("i", i))
	}
	if tr.Len() != 3 {
		t.Fatalf("ring holds %d, want 3", tr.Len())
	}
	recs := tr.snapshot()
	if recs[0].start != 2 || recs[2].start != 4 {
		t.Fatalf("ring kept wrong spans: %+v", recs)
	}
}

// TestCanonicalExportOrderIndependence is the determinism core: two
// tracers recording the same span set in different interleavings export
// byte-identical Chrome traces and flame summaries.
func TestCanonicalExportOrderIndependence(t *testing.T) {
	t.Parallel()
	type spec struct {
		name       string
		track      int
		start, end float64
		attr       int
	}
	specs := []spec{
		{"batch", 1, 0, 2, 0},
		{"request", 1, 0, 1, 1},
		{"request", 1, 0, 2, 2},
		{"batch", 2, 0.5, 2.5, 3},
		{"request", 2, 0.5, 1.5, 4},
	}
	build := func(order []int) *Tracer {
		tr := New()
		parents := make(map[int]*Span)
		// Record batches first within the given permutation so requests can
		// parent on them when they precede.
		for _, i := range order {
			s := specs[i]
			var parent *Span
			if s.name == "request" {
				parent = parents[s.track]
			}
			sp := tr.At(s.name, s.track, s.start, s.end, parent, Int("k", s.attr))
			if s.name == "batch" {
				parents[s.track] = sp
			}
		}
		return tr
	}
	a := build([]int{0, 1, 2, 3, 4})
	b := build([]int{3, 4, 0, 2, 1})

	var ja, jb, fa, fb bytes.Buffer
	if err := a.WriteChromeTrace(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("chrome traces differ:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	if !json.Valid(ja.Bytes()) {
		t.Fatalf("chrome trace not valid JSON: %s", ja.String())
	}
	if err := a.WriteFlame(&fa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFlame(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
		t.Fatalf("flame summaries differ:\n%s\nvs\n%s", fa.String(), fb.String())
	}
}

func TestChromeTraceShape(t *testing.T) {
	t.Parallel()
	tr := New()
	tr.At("run", 0, 1.5, 2.5, nil, String("model", "VGG11"), Int("layers", 11), Bool("ok", true))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("events: %d", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "run" || ev.Ph != "X" || ev.Ts != 1.5e6 || ev.Dur != 1e6 {
		t.Fatalf("event %+v", ev)
	}
	if ev.Args["model"] != "VGG11" || ev.Args["layers"] != float64(11) || ev.Args["ok"] != true {
		t.Fatalf("args %+v", ev.Args)
	}
}

func TestFlameSelfTimeAndQuantiles(t *testing.T) {
	t.Parallel()
	tr := New()
	run := tr.At("run", 0, 0, 10, nil)
	tr.At("layer", 0, 0, 3, run)
	tr.At("layer", 0, 3, 7, run)
	rows := tr.FlameSummary()
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Name != "run" || rows[0].Total != 10 || rows[0].Self != 3 {
		t.Fatalf("run row %+v", rows[0])
	}
	if rows[1].Name != "layer" || rows[1].Total != 7 || rows[1].Self != 7 || rows[1].Count != 2 {
		t.Fatalf("layer row %+v", rows[1])
	}
	// Nearest-rank quantiles over {3,4}: p50 -> 3, p90/p99 -> 4.
	if rows[1].P50 != 3 || rows[1].P90 != 4 || rows[1].P99 != 4 {
		t.Fatalf("layer quantiles %+v", rows[1])
	}
}

func TestConcurrentRecordingIsRaceFreeAndComplete(t *testing.T) {
	t.Parallel()
	tr := New()
	var wg sync.WaitGroup
	const g, per = 8, 50
	for w := 0; w < g; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.At("op", w, float64(i), float64(i)+1, nil, Int("worker", w), Int("i", i))
			}
		}()
	}
	wg.Wait()
	if tr.Len() != g*per {
		t.Fatalf("recorded %d, want %d", tr.Len(), g*per)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace not valid JSON")
	}
}

func TestAttrRendering(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		a    Attr
		text string
		js   string
	}{
		{String("k", `a"b`), `a"b`, `"a\"b"`},
		{Int("k", -3), "-3", "-3"},
		{Int64("k", 1<<40), "1099511627776", "1099511627776"},
		{Float("k", 0.25), "0.25", "0.25"},
		{Bool("k", true), "true", "true"},
	} {
		if got := tc.a.value(); got != tc.text {
			t.Errorf("value(%+v) = %q, want %q", tc.a, got, tc.text)
		}
		if got := tc.a.jsonValue(); got != tc.js {
			t.Errorf("jsonValue(%+v) = %q, want %q", tc.a, got, tc.js)
		}
	}
	// NaN must not corrupt the JSON document.
	tr := New()
	tr.At("x", 0, 0, 1, nil, Float("edp", math.NaN()))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("NaN attr broke JSON: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"NaN"`) {
		t.Fatalf("NaN not rendered as quoted string: %s", buf.String())
	}
}
