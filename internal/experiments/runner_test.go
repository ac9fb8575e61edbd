package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/telemetry"
)

// cheapIDs is a subset of All() whose drivers complete in milliseconds on
// one core (no horizon simulation, no bootstrap), deliberately including
// ids whose alphabetical order differs from paper order (abl-cluster vs
// tab1) so ordering regressions cannot hide. Determinism over the heavy
// drivers is covered by the golden-through-engine test below and by the
// drivers' own trend tests.
var cheapIDs = []string{
	"tab1", "tab2", "fig3", "fig4", "overhead",
	"abl-cluster", "noc-validate", "rowskip", "indexes",
}

// sequentialReference reproduces the pre-engine odinsim loop byte for
// byte: progress header, artefact body, timing footer, strictly in order,
// timings from a virtual clock pinned at 0.
func sequentialReference(t *testing.T, ids []string) []byte {
	t.Helper()
	clk := clock.NewVirtual(0)
	var buf bytes.Buffer
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "==> %s (%s)\n", e.Title, e.ID)
		start := clk.Now()
		res, err := e.Run(core.ControllerOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		res.Render(&buf)
		fmt.Fprintf(&buf, "<== %s done in %.3fs\n\n", e.ID, clk.Now()-start)
	}
	return buf.Bytes()
}

// TestRunAllByteIdenticalAcrossWorkerCounts is the engine's determinism
// contract: RunAll output equals the sequential loop's bytes at every
// worker count, including the GOMAXPROCS default.
func TestRunAllByteIdenticalAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	want := sequentialReference(t, cheapIDs)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		var got bytes.Buffer
		rep, err := RunAll(&got, RunOptions{Workers: workers, IDs: cheapIDs})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers=%d: output differs from sequential loop\n got: %q\nwant: %q",
				workers, got.String(), want)
		}
		if len(rep.Timings) != len(cheapIDs) {
			t.Fatalf("workers=%d: %d timings, want %d", workers, len(rep.Timings), len(cheapIDs))
		}
		for i, tm := range rep.Timings {
			if tm.ID != cheapIDs[i] {
				t.Fatalf("workers=%d: timing %d is %s, want %s (flush order)", workers, i, tm.ID, cheapIDs[i])
			}
		}
	}
}

// TestRunAllThroughGoldens drives the frozen artefacts through the
// parallel engine: RunAll over the golden ids on a multi-worker pool must
// produce exactly header + golden bytes + footer for each experiment, in
// order. This extends the golden protection from the drivers to the
// engine itself.
func TestRunAllThroughGoldens(t *testing.T) {
	t.Parallel()
	ids := []string{"tab1", "tab2", "fig3", "fig6", "overhead"}
	var want bytes.Buffer
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatalf("golden for %s: %v", id, err)
		}
		fmt.Fprintf(&want, "==> %s (%s)\n", e.Title, e.ID)
		want.Write(body)
		fmt.Fprintf(&want, "<== %s done in 0.000s\n\n", e.ID)
	}
	var got bytes.Buffer
	if _, err := RunAll(&got, RunOptions{Workers: 4, IDs: ids}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("engine output diverges from goldens\n got: %q\nwant: %q", got.String(), want.String())
	}
}

// TestRunAllJSONPaperOrderAndWorkerIndependence pins the runJSON ordering
// fix: keys appear in selection order, not encoding/json's alphabetical
// map order, and the bytes are identical across worker counts.
func TestRunAllJSONPaperOrderAndWorkerIndependence(t *testing.T) {
	t.Parallel()
	// Alphabetical order would be abl-cluster, noc-validate, tab1.
	ids := []string{"tab1", "abl-cluster", "noc-validate"}
	var ref bytes.Buffer
	if err := RunAllJSON(&ref, RunOptions{Workers: 1, IDs: ids}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(ref.Bytes()) {
		t.Fatalf("RunAllJSON emitted invalid JSON: %q", ref.String())
	}
	prev := -1
	for _, id := range ids {
		at := bytes.Index(ref.Bytes(), []byte(`"`+id+`":`))
		if at < 0 {
			t.Fatalf("key %q missing from JSON output", id)
		}
		if at < prev {
			t.Fatalf("key %q out of selection order (alphabetical leak)", id)
		}
		prev = at
	}
	var decoded map[string]any
	if err := json.Unmarshal(ref.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(ids) {
		t.Fatalf("decoded %d keys, want %d", len(decoded), len(ids))
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		var got bytes.Buffer
		if err := RunAllJSON(&got, RunOptions{Workers: workers, IDs: ids}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Fatalf("workers=%d: JSON bytes differ from workers=1", workers)
		}
	}
}

func TestRunAllUnknownIDFails(t *testing.T) {
	t.Parallel()
	if _, err := RunAll(io.Discard, RunOptions{IDs: []string{"nope"}}); err == nil {
		t.Fatal("RunAll accepted an unknown experiment id")
	}
	if err := RunAllJSON(io.Discard, RunOptions{IDs: []string{"nope"}}); err == nil {
		t.Fatal("RunAllJSON accepted an unknown experiment id")
	}
}

// text is a synthetic Result that renders as itself.
type text string

func (s text) Render(w io.Writer) { io.WriteString(w, string(s)) }

// synth builds a synthetic experiment for engine-semantics tests.
func synth(id string, run func() (Result, error)) Experiment {
	return Experiment{ID: id, Title: "synthetic " + id,
		Run: func(core.ControllerOptions) (Result, error) { return run() }}
}

// TestRunSelectedFlushOrderSurvivesOutOfOrderCompletion forces the first
// experiment to finish last: with >1 worker, experiment 0 blocks until the
// final experiment has run, so the pool completes everything out of flush
// order and the ordered flush is what restores the sequential bytes.
func TestRunSelectedFlushOrderSurvivesOutOfOrderCompletion(t *testing.T) {
	t.Parallel()
	const n = 16
	var lastDone atomic.Bool
	exps := make([]Experiment, n)
	for i := 0; i < n; i++ {
		i := i
		exps[i] = synth(fmt.Sprintf("s%02d", i), func() (Result, error) {
			if i == 0 {
				for !lastDone.Load() {
					runtime.Gosched()
				}
			}
			if i == n-1 {
				lastDone.Store(true)
			}
			return text(fmt.Sprintf("body %02d\n", i)), nil
		})
	}
	var got bytes.Buffer
	if _, err := streamSelected(&got, exps, RunOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "==> synthetic s%02d (s%02d)\nbody %02d\n<== s%02d done in 0.000s\n\n", i, i, i, i)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("flush order broken\n got: %q\nwant: %q", got.String(), want.String())
	}
}

// TestRunSelectedFailureMatchesSequentialBytes pins the failure contract:
// output stops after the failing experiment's progress header — exactly
// what the sequential loop would have printed — and later experiments do
// not leak into the stream, at any worker count.
func TestRunSelectedFailureMatchesSequentialBytes(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	exps := []Experiment{
		synth("ok0", func() (Result, error) { return text("zero\n"), nil }),
		synth("bad", func() (Result, error) { return nil, boom }),
		synth("ok2", func() (Result, error) { return text("two\n"), nil }),
	}
	want := "==> synthetic ok0 (ok0)\nzero\n<== ok0 done in 0.000s\n\n" +
		"==> synthetic bad (bad)\n"
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		rep, err := streamSelected(&got, exps, RunOptions{Workers: workers})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "bad:") {
			t.Fatalf("workers=%d: err %q does not name the failing experiment", workers, err)
		}
		if got.String() != want {
			t.Fatalf("workers=%d: failure bytes diverge from sequential\n got: %q\nwant: %q",
				workers, got.String(), want)
		}
		if len(rep.Timings) != 2 {
			t.Fatalf("workers=%d: %d timings after failure, want 2 (flushed prefix)", workers, len(rep.Timings))
		}
	}
}

// errWriter fails every write after the first n bytes-carrying calls.
type errWriter struct{ writes int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestRunSelectedSurfacesWriterError(t *testing.T) {
	t.Parallel()
	exps := []Experiment{
		synth("a", func() (Result, error) { return text(""), nil }),
		synth("b", func() (Result, error) { return text(""), nil }),
	}
	_, err := streamSelected(&errWriter{}, exps, RunOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("writer error not surfaced: %v", err)
	}
}

// TestRunSelectedReportTimings drives the engine single-worker with a
// virtual clock each experiment advances, so per-experiment seconds and
// the wall time are exact.
func TestRunSelectedReportTimings(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(0)
	exps := []Experiment{
		synth("a", func() (Result, error) { clk.Advance(1.5); return text(""), nil }),
		synth("b", func() (Result, error) { clk.Advance(2.5); return text(""), nil }),
	}
	rep, err := streamSelected(io.Discard, exps, RunOptions{Workers: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	approx := func(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
	if len(rep.Timings) != 2 || !approx(rep.Timings[0].Seconds, 1.5) || !approx(rep.Timings[1].Seconds, 2.5) {
		t.Fatalf("timings = %+v, want [1.5 2.5]", rep.Timings)
	}
	if !approx(rep.WallSeconds, 4) || !approx(rep.SumSeconds(), 4) {
		t.Fatalf("wall %g sum %g, want 4 and 4", rep.WallSeconds, rep.SumSeconds())
	}
	if !approx(rep.Speedup(), 1) {
		t.Fatalf("speedup = %g, want 1 for the single-worker run", rep.Speedup())
	}
}

// TestRunAllRecordsTelemetry checks the engine mirrors its report into the
// registry: per-experiment gauge series plus the aggregate gauges.
func TestRunAllRecordsTelemetry(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	if _, err := RunAll(io.Discard, RunOptions{Workers: 2, IDs: []string{"tab1", "tab2"}, Registry: reg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`odinsim_experiment_seconds{experiment="tab1"}`,
		`odinsim_experiment_seconds{experiment="tab2"}`,
		"odinsim_wall_seconds",
		"odinsim_workers 2",
		"odinsim_speedup",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("telemetry exposition missing %q:\n%s", want, out)
		}
	}
}
