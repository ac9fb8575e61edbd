package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"odin/internal/ou"
)

func sampleRun(t0 float64) RunAudit {
	return RunAudit{
		Time: t0, Age: t0 + 100,
		Layers: []LayerDecision{
			{
				Layer: 0, Predicted: ou.Size{R: 16, C: 16}, Start: ou.Size{R: 16, C: 16},
				Chosen: ou.Size{R: 16, C: 16}, Strategy: "rb", Evaluations: 5, PolicyWon: true,
				Candidates: []Candidate{
					{Size: ou.Size{R: 16, C: 16}, Energy: 1e-9, Latency: 2e-6, EDP: 2e-15, NF: 0.1, Feasible: true},
					{Size: ou.Size{R: 32, C: 16}, EDP: math.NaN(), NF: 0.9},
				},
			},
			{
				Layer: 1, Predicted: ou.Size{R: 64, C: 64}, Start: ou.Size{R: 32, C: 32},
				Chosen: ou.Size{R: 16, C: 32}, Strategy: "rb", Evaluations: 9,
				Candidates: []Candidate{
					{Size: ou.Size{R: 16, C: 32}, Energy: 2e-9, Latency: 1e-6, EDP: 2e-15, NF: 0.2, Feasible: true},
				},
			},
			{Layer: 2, Predicted: ou.Size{R: 8, C: 8}, Chosen: ou.Size{R: 4, C: 4}, Strategy: "degraded"},
		},
		Reprogrammed: true,
	}
}

func TestAuditLogNilSafe(t *testing.T) {
	t.Parallel()
	var nilLog *AuditLog
	if nilLog.Enabled() {
		t.Fatal("nil audit log enabled")
	}
	nilLog.Add(sampleRun(0)) // no-op
	if got := nilLog.Runs(); got != nil {
		t.Fatalf("nil log runs: %v", got)
	}
	var buf bytes.Buffer
	if err := nilLog.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil log rendered: %q", buf.String())
	}
}

func TestRunAuditAggregates(t *testing.T) {
	t.Parallel()
	r := sampleRun(0)
	if got := r.Evaluations(); got != 14 {
		t.Fatalf("evaluations %d, want 14", got)
	}
	// Layer 1 disagreed; layer 2 is degraded (not a disagreement).
	if got := r.Disagreements(); got != 1 {
		t.Fatalf("disagreements %d, want 1", got)
	}
}

func TestWriteTableRendersAttribution(t *testing.T) {
	t.Parallel()
	l := NewAuditLog()
	l.Add(sampleRun(0))
	l.Add(sampleRun(1000))
	var buf bytes.Buffer
	if err := l.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"run 0", "run 1", "layer", "predicted", "chosen",
		"16×16", "policy", "search", "degraded",
		"totals: evaluations=14 disagreements=1 reprogram=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Deterministic: render twice, identical bytes.
	var again bytes.Buffer
	if err := l.WriteTable(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("table rendering not deterministic")
	}
}
