package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/dnn"
)

// NoCValidateRow compares the analytic traffic model with the cycle-level
// cut-through simulation for one workload's inter-layer activation traffic.
type NoCValidateRow struct {
	Workload    string
	Flows       int
	AnalyticSec float64 // Route latency bound
	SimSec      float64 // simulated makespan
	Ratio       float64 // Sim / Analytic (≥ 1; small = tight bound)
	EnergyJ     float64 // identical under both models by construction
}

// NoCValidateResult is the full validation sweep.
type NoCValidateResult struct {
	Rows []NoCValidateRow
}

// NoCValidate runs every zoo workload's layer-to-layer traffic through both
// NoC models. The analytic model (used inside the horizon simulation for
// speed) must be a tight lower bound on the cycle-level schedule.
func NoCValidate(sys core.System) (NoCValidateResult, error) {
	var res NoCValidateResult
	for _, model := range dnn.AllWorkloads() {
		flows := core.LayerTraffic(sys, model)
		ratio, sim, analytic := sys.Mesh.ValidateAgainstAnalytic(flows)
		res.Rows = append(res.Rows, NoCValidateRow{
			Workload:    model.Name,
			Flows:       len(flows),
			AnalyticSec: analytic.Latency,
			SimSec:      sim.Makespan,
			Ratio:       ratio,
			EnergyJ:     sim.Energy,
		})
	}
	return res, nil
}

// Render prints the validation table.
func (r NoCValidateResult) Render(w io.Writer) {
	fmt.Fprintf(w, "NoC model validation: analytic bound vs cycle-level cut-through simulation\n")
	fmt.Fprintf(w, "%-14s %7s %14s %14s %8s %12s\n",
		"Workload", "flows", "analytic (s)", "simulated (s)", "ratio", "energy (J)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %7d %14.3e %14.3e %8.2f %12.3e\n",
			row.Workload, row.Flows, row.AnalyticSec, row.SimSec, row.Ratio, row.EnergyJ)
	}
}
