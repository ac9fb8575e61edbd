package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
)

// MobileNetRow is one configuration's outcome on the extension workload.
type MobileNetRow struct {
	Name       string
	EDP        float64 // normalised to the 16×16 inference EDP
	Reprograms int
	MinAcc     float64
}

// MobileNetResult runs the Fig. 8 protocol on MobileNetV2 — a
// depthwise-separable architecture outside the paper's evaluation set.
// Depthwise blocks map as tiny block-diagonal groups, the worst case for
// coarse OUs (most of a 16×16 OU spans other groups' zero regions), so the
// layer-wise adaptivity argument should hold at least as strongly here.
type MobileNetResult struct {
	Model string
	Rows  []MobileNetRow
}

// MobileNet runs the extension study.
func MobileNet(sys core.System, base core.ControllerOptions) (MobileNetResult, error) {
	cfg := defaultHorizon()
	res := MobileNetResult{Model: "MobileNetV2"}
	// MobileNetV2 belongs to no zoo family, so its offline policy learns
	// from all nine paper workloads: it is fully unseen, layer type
	// included.
	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	baselines, err := baselineHorizons(sys, wl, cfg)
	if err != nil {
		return res, err
	}
	odin, err := odinHorizon(sys, wl, pol, base, cfg)
	if err != nil {
		return res, err
	}
	names := configNames()
	norm := baselines[0].InferenceEDP()
	for i, sum := range append(baselines, odin) {
		res.Rows = append(res.Rows, MobileNetRow{
			Name:       names[i],
			EDP:        sum.TotalEDP() / norm,
			Reprograms: sum.Reprograms,
			MinAcc:     sum.MinAccuracy,
		})
	}
	return res, nil
}

// OdinRow returns the Odin row (always last).
func (r MobileNetResult) OdinRow() MobileNetRow { return r.Rows[len(r.Rows)-1] }

// Render prints the extension comparison.
func (r MobileNetResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension: %s (depthwise-separable, unseen architecture class)\n", r.Model)
	fmt.Fprintf(w, "EDP normalised to the 16×16 inference EDP\n")
	fmt.Fprintf(w, "%-8s %10s %12s %10s\n", "Config", "EDP", "reprograms", "min acc")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %10.3f %12d %9.1f%%\n", row.Name, row.EDP, row.Reprograms, row.MinAcc*100)
	}
	odin := r.OdinRow()
	for _, row := range r.Rows[:len(r.Rows)-1] {
		fmt.Fprintf(w, "Odin vs %s: %.1f×\n", row.Name, row.EDP/odin.EDP)
	}
}
