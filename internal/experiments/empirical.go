package experiments

import (
	"fmt"
	"io"
	"math"

	"odin/internal/core"
	"odin/internal/infer"
	"odin/internal/ou"
)

// EmpiricalCell is one (OU size, device age) measurement.
type EmpiricalCell struct {
	OU         ou.Size
	Age        float64
	FlipRate   float64 // fraction of argmax flips vs the ideal execution
	LogitError float64 // mean relative L2 deviation of the logits
	// SurrogateLoss is the analytic accuracy-loss estimate for a network
	// running homogeneously at this OU size and age — the quantity the
	// flip rate validates.
	SurrogateLoss float64
}

// EmpiricalResult is the device-level validation of the accuracy
// surrogate: a small CNN is executed on actual crossbar models and its
// class-flip rate measured across OU sizes and ages.
//
// Findings: the time axis validates cleanly — flip rate and logit
// distortion are monotone in device age, near zero on a fresh device and
// substantial once drift variation accumulates, matching the surrogate.
// The OU axis does NOT resolve at this modelling level: with Table II's
// 1 Ω wire the first-order per-cell IR term is sub-percent for every OU
// size (Eq. (4) itself gives only ≈1 % at 16×16), so the surrogate's OU
// dependence — calibrated from the paper's figures — stands in for
// higher-order effects (sneak currents, driver saturation, ADC clipping)
// that a first-order crossbar model cannot produce.
type EmpiricalResult struct {
	Sizes  []ou.Size
	Ages   []float64
	Cells  []EmpiricalCell
	Inputs int
}

// Empirical runs the flip-rate grid. The engine uses 6-bit cells so that
// quantisation does not mask the drift/IR-drop trends under test.
func Empirical(sys core.System, sizes []ou.Size, ages []float64) (EmpiricalResult, error) {
	if len(sizes) == 0 {
		sizes = []ou.Size{{R: 4, C: 4}, {R: 16, C: 16}, {R: 64, C: 64}}
	}
	if len(ages) == 0 {
		ages = []float64{1, 1e4, 1e7, 1e9}
	}
	const nInputs = 60

	device := sys.Device
	device.BitsPerCell = 6
	net := infer.RandomNet(1, 16, 16, 4, "empirical-net")
	engine, err := infer.NewEngine(net, device, 64)
	if err != nil {
		return EmpiricalResult{}, err
	}
	// Evaluate on boundary-heavy inputs: random tensors mostly land far
	// from decision boundaries, so the flip rate would under-resolve; the
	// hardest slice of a larger candidate pool is the realistic regime.
	candidates := infer.RandomInputs(6*nInputs, 1, 16, 16, "empirical-inputs")
	inputs := engine.HardestInputs(candidates, nInputs)

	res := EmpiricalResult{Sizes: sizes, Ages: ages, Inputs: nInputs}
	const surrogateLayers = 3 // the CNN's weight layers
	for _, s := range sizes {
		for _, age := range ages {
			opts := infer.Options{OU: s, SimTime: age}
			homogeneous := make([]ou.Size, surrogateLayers)
			for i := range homogeneous {
				homogeneous[i] = s
			}
			res.Cells = append(res.Cells, EmpiricalCell{
				OU:            s,
				Age:           age,
				FlipRate:      engine.FlipRate(inputs, opts),
				LogitError:    engine.MeanLogitError(inputs, opts),
				SurrogateLoss: sys.Acc.Loss(homogeneous, age),
			})
		}
	}
	return res, nil
}

// Cell returns the measurement for (size, age).
func (r EmpiricalResult) Cell(s ou.Size, age float64) (EmpiricalCell, bool) {
	for _, c := range r.Cells {
		// Ages are discrete sweep points copied verbatim into the cells,
		// so the lookup wants exact bit identity, not a tolerance.
		if c.OU == s && math.Float64bits(c.Age) == math.Float64bits(age) {
			return c, true
		}
	}
	return EmpiricalCell{}, false
}

// Render prints the flip-rate grid with the surrogate estimates alongside.
func (r EmpiricalResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Empirical surrogate validation: crossbar-executed CNN (%d inputs)\n", r.Inputs)
	fmt.Fprintf(w, "cells: logit-err%% / flip%% (surrogate loss %%)\n")
	fmt.Fprintf(w, "%-10s", "OU \\ age")
	for _, age := range r.Ages {
		fmt.Fprintf(w, "%18.0e", age)
	}
	fmt.Fprintln(w)
	for _, s := range r.Sizes {
		fmt.Fprintf(w, "%-10s", s.String())
		for _, age := range r.Ages {
			c, ok := r.Cell(s, age)
			if !ok {
				fmt.Fprintf(w, "%18s", "-")
				continue
			}
			fmt.Fprintf(w, "%6.1f/%4.1f%% (%4.1f%%)", c.LogitError*100, c.FlipRate*100, c.SurrogateLoss*100)
		}
		fmt.Fprintln(w)
	}
}
