package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
)

// ConfidenceRow is one search-routing variant's outcome.
type ConfidenceRow struct {
	Name          string
	EvalsPerLayer float64
	EDP           float64
	Reprograms    int
}

// ConfidenceResult compares three search-routing strategies for line 6 of
// Algorithm 1: always-RB (the paper), always-EX (§V.B's costly
// alternative), and the confidence-gated hybrid (EX only when the policy
// is unsure — following the uncertainty-aware online learning line the
// paper builds on).
type ConfidenceResult struct {
	Model string
	Rows  []ConfidenceRow
}

// Confidence runs the comparison on VGG11.
func Confidence(sys core.System, base core.ControllerOptions, thresholds []float64) (ConfidenceResult, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.3, 0.5, 0.8}
	}
	cfg := ablationHorizon()
	res := ConfidenceResult{Model: "VGG11"}

	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	run := func(name string, opts core.ControllerOptions) error {
		sum, err := odinHorizon(sys, wl, pol, opts, cfg)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, ConfidenceRow{
			Name:          name,
			EvalsPerLayer: float64(sum.SearchEvaluations) / (float64(cfg.Epochs) * float64(wl.Layers())),
			EDP:           sum.TotalEDP(),
			Reprograms:    sum.Reprograms,
		})
		return nil
	}

	if err := run("RB (paper)", base); err != nil {
		return res, err
	}
	for _, th := range thresholds {
		opts := base
		opts.ConfidenceThreshold = th
		if err := run(fmt.Sprintf("hybrid ≥%.1f", th), opts); err != nil {
			return res, err
		}
	}
	ex := base
	ex.Strategy = "ex"
	if err := run("EX always", ex); err != nil {
		return res, err
	}
	return res, nil
}

// Render prints the routing comparison.
func (r ConfidenceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension: confidence-gated search routing (%s)\n", r.Model)
	fmt.Fprintf(w, "%-14s %16s %14s %12s\n", "Variant", "evals/decision", "EDP", "reprograms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %16.1f %14.3e %12d\n", row.Name, row.EvalsPerLayer, row.EDP, row.Reprograms)
	}
}
