package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/policy"
	"odin/internal/search"
)

// OverheadResult reproduces §V.E: the hardware and runtime cost of
// layer-wise OU control and online learning.
type OverheadResult struct {
	OUControllerAreaMM2 float64 // paper: 0.005 mm²
	OUControllerSharePc float64 // paper: 1.8 % of the tile
	LearningAreaMM2     float64 // paper: 0.076 mm²
	LearningAreaSharePc float64 // paper: 0.2 % of the 36-PE system
	PredictPowerMW      float64 // paper: 0.14 mW
	PredictLatencyPc    float64 // paper: 0.9 % penalty vs static 16×16
	UpdateEnergyUJ      float64 // paper: 0.22 µJ per update (100 epochs)
	BufferExamples      int     // paper: 50
	BufferKB            float64 // paper: 0.35 KB
	PolicyParams        int
	EXOverRBRatio       float64 // paper: ≈3× comparator overhead
}

// Overhead derives the §V.E numbers from the architecture and policy models.
func Overhead(sys core.System) (OverheadResult, error) {
	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
	opts := core.DefaultControllerOptions()
	o := sys.Arch.OverheadModel(pol.NumParams(), opts.BufferSize, core.UpdateEpochs)

	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		return OverheadResult{}, err
	}
	grid := sys.Grid()
	obj := core.LayerObjective(sys, wl, 4, 1)
	rb := search.ResourceBounded(grid, obj, grid.SizeAt(2, 2), 3)
	ex := search.Exhaustive(grid, obj)

	return OverheadResult{
		OUControllerAreaMM2: o.OUControllerArea,
		OUControllerSharePc: o.OUControllerShare * 100,
		LearningAreaMM2:     o.LearningArea,
		LearningAreaSharePc: o.LearningAreaShare * 100,
		PredictPowerMW:      o.PredictPower * 1e3,
		PredictLatencyPc:    o.PredictLatencyPct,
		UpdateEnergyUJ:      o.UpdateEnergy * 1e6,
		BufferExamples:      o.TrainingBufferSize,
		BufferKB:            o.TrainingBufferKB,
		PolicyParams:        pol.NumParams(),
		EXOverRBRatio:       float64(ex.Evaluations) / float64(rb.Evaluations),
	}, nil
}

// Render prints the overhead summary in §V.E's terms.
func (r OverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Sec. V-E: overhead analysis\n")
	fmt.Fprintf(w, "OU/ADC controller area:        %.4f mm² (%.1f%% of tile)\n",
		r.OUControllerAreaMM2, r.OUControllerSharePc)
	fmt.Fprintf(w, "Online-learning hardware area: %.4f mm² (%.2f%% of 36-PE system)\n",
		r.LearningAreaMM2, r.LearningAreaSharePc)
	fmt.Fprintf(w, "OU size prediction power:      %.2f mW (policy: %d params)\n",
		r.PredictPowerMW, r.PolicyParams)
	fmt.Fprintf(w, "Prediction latency penalty:    %.1f%% vs static 16×16\n", r.PredictLatencyPc)
	fmt.Fprintf(w, "Policy update energy:          %.2f µJ per update (100 epochs, %d examples, %.2f KB buffer)\n",
		r.UpdateEnergyUJ, r.BufferExamples, r.BufferKB)
	fmt.Fprintf(w, "EX search comparator overhead: %.1f× over RB\n", r.EXOverRBRatio)
}
