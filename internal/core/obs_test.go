package core

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"odin/internal/dnn"
	"odin/internal/obs"
	"odin/internal/ou"
)

func tracedController(t *testing.T) (*Controller, *obs.Tracer, *obs.AuditLog) {
	t.Helper()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	log := obs.NewAuditLog()
	opts := DefaultControllerOptions()
	opts.Tracer = tr
	opts.Audit = log
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, tr, log
}

func TestControllerAuditRecordsDecisions(t *testing.T) {
	t.Parallel()
	ctrl, _, log := tracedController(t)
	rep := ctrl.RunInference(0)

	runs := log.Runs()
	if len(runs) != 1 {
		t.Fatalf("audit recorded %d runs, want 1", len(runs))
	}
	a := runs[0]
	if len(a.Layers) != len(rep.Sizes) {
		t.Fatalf("audited %d layers, want %d", len(a.Layers), len(rep.Sizes))
	}
	if a.Evaluations() != rep.SearchEvaluations {
		t.Fatalf("audit evaluations %d, report says %d",
			a.Evaluations(), rep.SearchEvaluations)
	}
	if a.Disagreements() != rep.Disagreements {
		t.Fatalf("audit disagreements %d, report says %d",
			a.Disagreements(), rep.Disagreements)
	}
	if a.Reprogrammed != rep.Reprogrammed {
		t.Fatal("audit reprogram flag disagrees with the report")
	}
	for j, d := range a.Layers {
		if d.Layer != j || d.Chosen != rep.Sizes[j] {
			t.Fatalf("layer %d decision %+v disagrees with report size %v",
				j, d, rep.Sizes[j])
		}
		if d.Strategy != "rb" { // fresh device, defaults: K-step local walk
			t.Fatalf("layer %d strategy %q, want rb", j, d.Strategy)
		}
		if d.PolicyWon != (d.Predicted == d.Chosen) {
			t.Fatalf("layer %d PolicyWon inconsistent: %+v", j, d)
		}
		if len(d.Candidates) != d.Evaluations {
			t.Fatalf("layer %d recorded %d candidates for %d evaluations",
				j, len(d.Candidates), d.Evaluations)
		}
		chosenSeen := false
		for _, cand := range d.Candidates {
			if cand.Feasible == math.IsNaN(cand.EDP) {
				t.Fatalf("layer %d candidate %v: feasible=%t edp=%g",
					j, cand.Size, cand.Feasible, cand.EDP)
			}
			if cand.Size == d.Chosen {
				chosenSeen = true
				if !cand.Feasible || cand.Energy <= 0 || cand.Latency <= 0 {
					t.Fatalf("layer %d chosen candidate unscored: %+v", j, cand)
				}
			}
		}
		if !chosenSeen {
			t.Fatalf("layer %d chosen size %v never evaluated", j, d.Chosen)
		}
	}

	// Far past every violation deadline the device degrades: the audit must
	// attribute the smallest-OU fallback and the scheduled write pass.
	rep2 := ctrl.RunInference(1e12)
	if !rep2.Reprogrammed {
		t.Fatal("expected a reprogram far past the deadlines")
	}
	a2 := log.Runs()[1]
	if !a2.Reprogrammed {
		t.Fatal("audit missed the reprogram")
	}
	degraded := 0
	for _, d := range a2.Layers {
		if d.Strategy == "degraded" {
			degraded++
			if d.Evaluations != 0 || len(d.Candidates) != 0 {
				t.Fatalf("degraded layer %d claims search work: %+v", d.Layer, d)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded layer audited at t=1e12")
	}
}

func TestControllerSpansTileRun(t *testing.T) {
	t.Parallel()
	ctrl, tr, _ := tracedController(t)
	rep := ctrl.RunInference(0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}

	var run struct{ ts, dur float64 }
	var layers []struct{ ts, dur float64 }
	var noc struct{ ts, dur float64 }
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Name]++
		switch e.Name {
		case "run":
			run.ts, run.dur = e.Ts, e.Dur
		case "layer":
			layers = append(layers, struct{ ts, dur float64 }{e.Ts, e.Dur})
		case "noc":
			noc.ts, noc.dur = e.Ts, e.Dur
		}
	}
	if counts["run"] != 1 || counts["noc"] != 1 || counts["layer"] != len(rep.Sizes) {
		t.Fatalf("span counts: %d run, %d layer (want %d), %d noc",
			counts["run"], counts["layer"], len(rep.Sizes), counts["noc"])
	}
	// Canonical export sorts by start time, so layer spans arrive in
	// execution order and must tile [run.ts, noc end] contiguously.
	eps := 1e-9 * (run.dur + 1)
	cursor := run.ts
	for j, l := range layers {
		if math.Abs(l.ts-cursor) > eps {
			t.Fatalf("layer %d starts at %g, want %g", j, l.ts, cursor)
		}
		cursor = l.ts + l.dur
	}
	if math.Abs(noc.ts-cursor) > eps || math.Abs(noc.ts+noc.dur-(run.ts+run.dur)) > eps {
		t.Fatalf("noc span [%g,%g] does not close the run [%g,%g]",
			noc.ts, noc.ts+noc.dur, run.ts, run.ts+run.dur)
	}
	if got := run.dur / 1e6; math.Abs(got-rep.Latency) > 1e-9*rep.Latency {
		t.Fatalf("run span duration %g s, report latency %g s", got, rep.Latency)
	}

	// A degraded run appends a reprogram span after the inference window.
	rep2 := ctrl.RunInference(1e12)
	if !rep2.Reprogrammed {
		t.Fatal("expected a reprogram far past the deadlines")
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc2 struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc2); err != nil {
		t.Fatal(err)
	}
	reprograms := 0
	for _, e := range doc2.TraceEvents {
		if e.Name == "reprogram" {
			reprograms++
		}
	}
	if reprograms != 1 {
		t.Fatalf("%d reprogram spans, want 1", reprograms)
	}
}

// auditSummary is the decision summary odinserve derived from each run's
// audit record before RunReport carried one, frozen as an oracle: the
// layers' strategies, each once, comma-joined in first-use order, the
// audit's evaluation and disagreement counts, and the chosen sizes.
func auditSummary(r obs.RunAudit) (strategies string, evals, disagreements int, sizes []ou.Size) {
	var strats []string
	for _, l := range r.Layers {
		sizes = append(sizes, l.Chosen)
		seen := false
		for _, s := range strats {
			if s == l.Strategy {
				seen = true
				break
			}
		}
		if !seen {
			strats = append(strats, l.Strategy)
		}
	}
	return strings.Join(strats, ","), r.Evaluations(), r.Disagreements(), sizes
}

// TestRunReportMatchesAuditSummary checks each run's Strategies,
// SearchEvaluations, Disagreements and Sizes against the summary of the
// same run's audit record, over every strategy with confidence escalation
// off and at threshold 0.5, and 40 runs that cross the forced-reprogram
// deadline, so that runs mix escalations to "ex" and degraded layers with
// the configured strategy.
func TestRunReportMatchesAuditSummary(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	for _, model := range []*dnn.Model{dnn.NewVGG11(), dnn.NewResNet18()} {
		wl, err := sys.Prepare(model)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(model.Name, func(t *testing.T) {
			t.Parallel()
			var mixed, escalated, degraded int
			for _, strategy := range []string{"rb", "bo", "pareto", "ex"} {
				for _, threshold := range []float64{0, 0.5} {
					log := obs.NewAuditLog()
					opts := DefaultControllerOptions()
					opts.Strategy, opts.ConfidenceThreshold, opts.Audit = strategy, threshold, log
					ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 40; k++ {
						rep := ctrl.RunInference(float64(k) * 2.5e6)
						strats, evals, disagreements, sizes := auditSummary(log.Runs()[k])
						if rep.Strategies != strats || rep.SearchEvaluations != evals ||
							rep.Disagreements != disagreements || !slices.Equal(rep.Sizes, sizes) {
							t.Fatalf("%s threshold=%g run %d: report (%q, %d evaluations, %d disagreements, %v), audit (%q, %d, %d, %v)",
								strategy, threshold, k, rep.Strategies, rep.SearchEvaluations,
								rep.Disagreements, rep.Sizes, strats, evals, disagreements, sizes)
						}
						names := strings.Split(strats, ",")
						if len(names) > 1 {
							mixed++
						}
						if strategy != "ex" && slices.Contains(names, "ex") {
							escalated++
						}
						if slices.Contains(names, "degraded") {
							degraded++
						}
					}
				}
			}
			if mixed == 0 || escalated == 0 || degraded == 0 {
				t.Fatalf("%d mixed, %d escalated and %d degraded runs: the comparison never saw a mix",
					mixed, escalated, degraded)
			}
		})
	}
}
