package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/infer"
	"odin/internal/ou"
	"odin/internal/rng"
)

// NoiseRow is one read-noise level's measured impact.
type NoiseRow struct {
	Sigma      float64
	LogitError float64
	FlipRate   float64
}

// NoiseResult sweeps multiplicative read-noise σ on the crossbar-executed
// CNN — the thermal/shot-noise axis of the non-ideality taxonomy (paper
// §I cites it alongside IR-drop and drift; the analytic models fold it
// into the calibrated surrogate, this study measures it directly).
type NoiseResult struct {
	Sigmas []float64
	Rows   []NoiseRow
	Inputs int
}

// Noise runs the sweep on a fresh device (age t₀) so the noise axis is
// isolated from drift.
func Noise(sys core.System, sigmas []float64) (NoiseResult, error) {
	if len(sigmas) == 0 {
		sigmas = []float64{0, 0.01, 0.02, 0.05, 0.10}
	}
	const nInputs = 40
	device := sys.Device
	device.BitsPerCell = 6
	device.DriftSigma = 0 // isolate the noise axis
	net := infer.RandomNet(1, 16, 16, 4, "noise-net")
	engine, err := infer.NewEngine(net, device, 64)
	if err != nil {
		return NoiseResult{}, err
	}
	candidates := infer.RandomInputs(4*nInputs, 1, 16, 16, "noise-inputs")
	inputs := engine.HardestInputs(candidates, nInputs)

	res := NoiseResult{Sigmas: sigmas, Inputs: nInputs}
	for _, sigma := range sigmas {
		opts := infer.Options{
			OU: ou.Size{R: 16, C: 16}, SimTime: 0,
			NoiseSigma: sigma,
			Noise:      rng.NewFromString(fmt.Sprintf("noise-sweep/%g", sigma)),
		}
		res.Rows = append(res.Rows, NoiseRow{
			Sigma:      sigma,
			LogitError: engine.MeanLogitError(inputs, opts),
			FlipRate:   engine.FlipRate(inputs, opts),
		})
	}
	return res, nil
}

// Render prints the noise sweep.
func (r NoiseResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Read-noise sensitivity on a fresh device (16×16 OU, %d boundary inputs)\n", r.Inputs)
	fmt.Fprintf(w, "%-8s %14s %12s\n", "σ", "logit error", "flip rate")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8.2f %13.1f%% %11.1f%%\n", row.Sigma, row.LogitError*100, row.FlipRate*100)
	}
}
