package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
)

// ProactiveRow is one controller variant's horizon outcome.
type ProactiveRow struct {
	Name       string
	Reprograms int
	Energy     float64 // per-inference total energy (J)
	Latency    float64 // per-inference total latency (s)
	EDP        float64
	MinAcc     float64
}

// ProactiveResult compares the paper's Odin (reprogram only when η is
// unsatisfiable) with the proactive extension (also reprogram when the
// drift-constrained inference latency degrades past a factor of the
// fresh-device latency), across several trigger factors.
type ProactiveResult struct {
	Model string
	Rows  []ProactiveRow
}

// Proactive runs the comparison on VGG11.
func Proactive(sys core.System, base core.ControllerOptions, factors []float64) (ProactiveResult, error) {
	if len(factors) == 0 {
		factors = []float64{1.2, 1.5, 2}
	}
	cfg := defaultHorizon()
	res := ProactiveResult{Model: "VGG11"}

	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	run := func(name string, opts core.ControllerOptions) error {
		sum, err := odinHorizon(sys, wl, pol, opts, cfg)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, ProactiveRow{
			Name:       name,
			Reprograms: sum.Reprograms,
			Energy:     sum.TotalEnergy(),
			Latency:    sum.TotalLatency(),
			EDP:        sum.TotalEDP(),
			MinAcc:     sum.MinAccuracy,
		})
		return nil
	}

	if err := run("Odin (paper)", base); err != nil {
		return res, err
	}
	for _, f := range factors {
		opts := base
		opts.ProactiveFactor = f
		if err := run(fmt.Sprintf("proactive %.1f×", f), opts); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Render prints the comparison.
func (r ProactiveResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension: proactive reprogramming (%s); trigger = latency degradation factor\n", r.Model)
	fmt.Fprintf(w, "%-16s %12s %14s %14s %14s %10s\n",
		"Variant", "reprograms", "E/inf (J)", "L/inf (s)", "EDP", "min acc")
	base := r.Rows[0].EDP
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %12d %14.3e %14.3e %14.3e %9.1f%%\n",
			row.Name, row.Reprograms, row.Energy, row.Latency, row.EDP, row.MinAcc*100)
	}
	best := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.EDP < best.EDP {
			best = row
		}
	}
	fmt.Fprintf(w, "best variant: %s (%.2f× the paper controller's EDP)\n", best.Name, best.EDP/base)
}
