package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"strings"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/obs"
	"odin/internal/policy"
)

// TraceOptions parameterise RunTrace (the `odinsim trace` subcommand).
type TraceOptions struct {
	// Model names the zoo workload to trace (case-insensitive).
	Model string
	// Runs is the number of decision epochs traced (default 8).
	Runs int
	// Horizon is the simulated ageing span the runs spread over, in
	// seconds (default 1e8, the paper's sweep end). The k-th run executes
	// at t = k·Horizon/Runs, so later runs see a drifted device and the
	// trace captures the policy's migration toward finer OUs — and, late
	// enough, degraded layers and reprogramming passes.
	Horizon float64
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.Runs <= 0 {
		o.Runs = 8
	}
	if o.Horizon <= 0 {
		o.Horizon = 1e8
	}
	return o
}

// TraceResult bundles the artefacts of one traced simulation: the span
// tree (Chrome trace JSON / flame summary) and the per-layer decision
// audit of every run.
type TraceResult struct {
	Model   string
	Runs    int
	Horizon float64
	Tracer  *obs.Tracer
	Audit   *obs.AuditLog
	Reports []core.RunReport
}

// RunTrace executes a fully-observed ageing sweep of one workload: a fresh
// controller runs TraceOptions.Runs inference passes spread over the
// horizon with span tracing and decision auditing enabled. Deterministic:
// everything derives from seed 1 and the virtual timeline.
func RunTrace(opts TraceOptions) (*TraceResult, error) {
	opts = opts.withDefaults()
	model, err := modelByNameFold(opts.Model)
	if err != nil {
		return nil, err
	}
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(model)
	if err != nil {
		return nil, err
	}
	tr := obs.New()
	audit := obs.NewAuditLog()
	copts := core.DefaultControllerOptions()
	copts.Tracer = tr
	copts.Audit = audit
	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
	ctrl, err := core.NewController(sys, wl, pol, copts)
	if err != nil {
		return nil, err
	}

	// Crossbar-mapping attribution, one zero-width span per layer on the
	// setup track (-1): how the pim layer placed the workload the runs
	// execute against.
	for j, lm := range wl.Mappings {
		tr.At("mapping", -1, 0, 0, nil,
			slog.Int("layer", j),
			slog.String("name", model.Layers[j].Name),
			slog.Int("xbars", lm.Xbars),
			slog.Int("rows", lm.RowsUsed),
			slog.Int("cols", lm.ColsUsed),
			slog.Int("cells", lm.CellsNonZero))
	}

	res := &TraceResult{
		Model: model.Name, Runs: opts.Runs, Horizon: opts.Horizon,
		Tracer: tr, Audit: audit,
	}
	for k := 0; k < opts.Runs; k++ {
		t := float64(k) * opts.Horizon / float64(opts.Runs)
		res.Reports = append(res.Reports, ctrl.RunInference(t))
	}
	return res, nil
}

// Render prints the human-readable artefacts: the per-layer decision-audit
// attribution table of every run, then the flame summary of the span tree.
func (r *TraceResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace: model %s, %d runs over %g s\n\n",
		r.Model, r.Runs, r.Horizon); err != nil {
		return err
	}
	if err := r.Audit.WriteTable(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return r.Tracer.WriteFlame(w)
}

// modelByNameFold resolves a zoo model case-insensitively — the CLI accepts
// `-model resnet18` for the zoo's "ResNet18". Exact matches win.
func modelByNameFold(name string) (*dnn.Model, error) {
	if name == "" {
		return nil, fmt.Errorf("experiments: trace needs a model name")
	}
	if m, err := dnn.ByName(name); err == nil {
		return m, nil
	}
	for _, m := range dnn.ExtendedWorkloads() {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown model %q (run `odinsim trace` with one of the zoo names, case-insensitive)", name)
}
