package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"odin/internal/check"
)

// TestTraceGoldenFlame freezes the flame summary of one odinsim trace run.
// The span tree derives purely from the seed and the virtual timeline, so
// the rendered bytes must never drift without an intentional change.
//
// Refresh with:
//
//	go test ./internal/experiments -run TestTraceGoldenFlame -update
func TestTraceGoldenFlame(t *testing.T) {
	t.Parallel()
	res, err := RunTrace(TraceOptions{Model: "resnet18", Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Tracer.WriteFlame(&buf); err != nil {
		t.Fatal(err)
	}
	check.Golden(t, filepath.Join("testdata", "traceflame.golden"), buf.Bytes())
}

// TestTraceGoldenAudit freezes the decision-audit table of the same run:
// every layer's prediction, clamp, choice, winner and evaluation count,
// and the chosen candidate's scores.
//
// Refresh with:
//
//	go test ./internal/experiments -run TestTraceGoldenAudit -update
func TestTraceGoldenAudit(t *testing.T) {
	t.Parallel()
	res, err := RunTrace(TraceOptions{Model: "resnet18", Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Audit.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	check.Golden(t, filepath.Join("testdata", "traceaudit.golden"), buf.Bytes())
}

// TestTraceAuditMatchesReports cross-checks the two observability artefacts
// against the controller's own report: one audit per run, evaluation counts
// in agreement, and a Chrome export that parses as JSON.
func TestTraceAuditMatchesReports(t *testing.T) {
	t.Parallel()
	res, err := RunTrace(TraceOptions{Model: "VGG11", Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Audit.Runs()
	if len(runs) != 3 || len(res.Reports) != 3 {
		t.Fatalf("got %d audits / %d reports, want 3/3", len(runs), len(res.Reports))
	}
	for i, a := range runs {
		rep := res.Reports[i]
		if a.Time != rep.Time {
			t.Fatalf("run %d audit time %g, report %g", i, a.Time, rep.Time)
		}
		if got := a.Evaluations(); got != rep.SearchEvaluations {
			t.Fatalf("run %d audit evaluations %d, report %d", i, got, rep.SearchEvaluations)
		}
		if got := a.Disagreements(); got != rep.Disagreements {
			t.Fatalf("run %d audit disagreements %d, report %d", i, got, rep.Disagreements)
		}
	}
	var buf bytes.Buffer
	if err := res.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != res.Tracer.Len() {
		t.Fatalf("export has %d events, tracer holds %d spans", len(doc.TraceEvents), res.Tracer.Len())
	}
}

// TestTraceModelResolution pins the case-insensitive zoo lookup and the
// error paths the CLI surfaces.
func TestTraceModelResolution(t *testing.T) {
	t.Parallel()
	lower, err := RunTrace(TraceOptions{Model: "resnet18", Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lower.Model != "ResNet18" {
		t.Fatalf("folded lookup resolved %q, want ResNet18", lower.Model)
	}
	if _, err := RunTrace(TraceOptions{Model: "no-such-net"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := RunTrace(TraceOptions{}); err == nil {
		t.Fatal("empty model accepted")
	}
}
