package experiments

import (
	"fmt"
	"io"
	"math"

	"odin/internal/core"
	"odin/internal/reram"
)

// LifetimeRow is one configuration's endurance outcome.
type LifetimeRow struct {
	Name          string
	Reprograms    int     // passes over the 10⁸ s horizon
	WearFraction  float64 // endurance consumed over the horizon
	LifetimeYears float64 // projected service life at this cadence
}

// LifetimeResult is the endurance extension study: how each OU strategy's
// reprogramming cadence translates into device service life.
type LifetimeResult struct {
	Model      string
	Endurance  reram.Endurance
	HorizonSec float64
	Rows       []LifetimeRow
}

// Lifetime runs the VGG11 horizon for every configuration and extrapolates
// wear. This is an extension beyond the paper's evaluation: the paper
// motivates minimising reprogramming by its energy cost; endurance makes
// the same cadence a *lifetime* limit.
func Lifetime(sys core.System, base core.ControllerOptions) (LifetimeResult, error) {
	cfg := defaultHorizon()
	endurance := reram.DefaultEndurance()
	res := LifetimeResult{Model: "VGG11", Endurance: endurance, HorizonSec: cfg.End}

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
	for i, sum := range append(baselines, odin) {
		res.Rows = append(res.Rows, LifetimeRow{
			Name:          names[i],
			Reprograms:    sum.Reprograms,
			WearFraction:  endurance.WearFraction(sum.Reprograms, sys.Device),
			LifetimeYears: endurance.LifetimeYears(sum.Reprograms, cfg.End, sys.Device),
		})
	}
	return res, nil
}

// Render prints the endurance table.
func (r LifetimeResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension: device endurance and service life (%s, %.0e-write cells, horizon %.0e s)\n",
		r.Model, r.Endurance.WriteLimit, r.HorizonSec)
	fmt.Fprintf(w, "%-8s %12s %16s %16s\n", "Config", "reprograms", "wear/horizon", "lifetime (yr)")
	for _, row := range r.Rows {
		life := fmt.Sprintf("%.1f", row.LifetimeYears)
		if math.IsInf(row.LifetimeYears, 1) {
			life = "retention-bound"
		}
		fmt.Fprintf(w, "%-8s %12d %15.3f%% %16s\n",
			row.Name, row.Reprograms, row.WearFraction*100, life)
	}
}
