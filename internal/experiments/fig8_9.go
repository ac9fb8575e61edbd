package experiments

import (
	"fmt"
	"io"
	"sync"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/par"
	"odin/internal/policy"
)

// Fig8Row is one workload's normalised EDP bars.
type Fig8Row struct {
	Workload string
	Dataset  string
	// EDP per configuration (paper order: 16×16, 16×4, 9×8, 8×4, Odin),
	// normalised to the workload's 16×16 *inference* EDP.
	EDP map[string]float64
	// ReductionVsOdin[name] = EDP(name)/EDP(Odin).
	ReductionVsOdin map[string]float64
}

// Fig8Result is the cross-workload EDP comparison.
type Fig8Result struct {
	Rows []Fig8Row
	// MeanReduction[name] is the average over workloads of
	// EDP(name)/EDP(Odin) — the paper reports 3.9×, 2.5×, 1.5×, 1.9×.
	MeanReduction map[string]float64
	// MaxReduction is the largest per-workload reduction (paper: up to 8.7×
	// across the sensitivity study).
	MaxReduction float64
}

// Fig8 runs every zoo workload with Odin and the four homogeneous
// baselines, applying the leave-one-out bootstrap per workload. Workloads
// of one family (VGG11/16/19, ResNet18/34/50) leave out the same family, so
// each family's offline policy is trained once and every workload adapts
// its own clone. Workloads are simulated in parallel (each goroutine
// prepares its own workload, which its baselines and controller share, and
// fills only rows[i]); the mean/max reductions are then reduced over the
// rows in workload order, so the rounding — and the rendered bytes — match
// the sequential loop exactly.
func Fig8(sys core.System, base core.ControllerOptions) (Fig8Result, error) {
	cfg := defaultHorizon()
	res := Fig8Result{MeanReduction: map[string]float64{}}
	names := configNames()
	baselineNames := names[:len(names)-1]

	models := dnn.AllWorkloads()
	// One offline policy per family, trained by the first of its workloads
	// to finish its baselines. The map is filled before the workers start
	// and only read by them. Each family's first workload is among the
	// first five, so no worker waits on a bootstrap nobody has started.
	offline := map[string]func() (*policy.Policy, error){}
	for _, m := range models {
		if f := familyOf(m.Name); offline[f] == nil {
			offline[f] = sync.OnceValues(func() (*policy.Policy, error) { return offlinePolicy(sys, m.Name) })
		}
	}
	rows := make([]Fig8Row, len(models))
	if err := par.ForEach(0, len(models), func(i int) error {
		model := models[i]
		row := Fig8Row{
			Workload:        model.Name,
			Dataset:         model.Dataset.Name,
			EDP:             map[string]float64{},
			ReductionVsOdin: map[string]float64{},
		}
		wl, err := sys.Prepare(model)
		if err != nil {
			return err
		}
		baselines, err := baselineHorizons(sys, wl, cfg)
		if err != nil {
			return err
		}
		pol, err := offline[familyOf(model.Name)]()
		if err != nil {
			return err
		}
		odin, err := odinHorizon(sys, wl, pol, base, cfg)
		if err != nil {
			return err
		}
		norm := baselines[0].InferenceEDP()
		for k, sum := range append(baselines, odin) {
			row.EDP[names[k]] = sum.TotalEDP() / norm
		}
		for _, name := range baselineNames {
			row.ReductionVsOdin[name] = row.EDP[name] / row.EDP["Odin"]
		}
		rows[i] = row
		return nil
	}); err != nil {
		return res, err
	}

	for _, row := range rows {
		for _, name := range baselineNames {
			red := row.ReductionVsOdin[name]
			res.MeanReduction[name] += red
			if red > res.MaxReduction {
				res.MaxReduction = red
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for name := range res.MeanReduction {
		res.MeanReduction[name] /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints the per-workload bars and the headline averages.
func (r Fig8Result) Render(w io.Writer) {
	order := []string{"16×16", "16×4", "9×8", "8×4", "Odin"}
	fmt.Fprintf(w, "Fig. 8: EDP comparison across DNN workloads (normalised to each workload's 16×16 inference EDP)\n")
	fmt.Fprintf(w, "%-14s %-13s", "Workload", "Dataset")
	for _, name := range order {
		fmt.Fprintf(w, "%10s", name)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-13s", row.Workload, row.Dataset)
		for _, name := range order {
			fmt.Fprintf(w, "%10.3f", row.EDP[name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "Average EDP reduction of Odin vs:")
	for _, name := range order[:4] {
		fmt.Fprintf(w, "  %s %.1f×", name, r.MeanReduction[name])
	}
	fmt.Fprintf(w, "\nMax per-workload reduction: %.1f×\n", r.MaxReduction)
}

// Fig9Row is one crossbar size's EDP ratios (baseline EDP / Odin EDP).
type Fig9Row struct {
	CrossbarSize int
	Ratios       map[string]float64
	MaxRatio     float64
}

// Fig9Result is the crossbar-size sensitivity study on ResNet34.
type Fig9Result struct {
	Model string
	Rows  []Fig9Row
}

// Fig9 sweeps crossbar sizes 128², 64², 32² (ResNet34 / CIFAR-100).
func Fig9(platform core.System, base core.ControllerOptions, sizes []int) (Fig9Result, error) {
	if len(sizes) == 0 {
		sizes = []int{128, 64, 32}
	}
	cfg := defaultHorizon()
	res := Fig9Result{Model: "ResNet34", Rows: make([]Fig9Row, len(sizes))}
	// Index-sharded crossbar-size sweep: each goroutine scales its own copy
	// of the platform, sets up ResNet34 on it and writes only
	// res.Rows[i].
	if err := par.ForEach(0, len(sizes), func(i int) error {
		xb := sizes[i]
		sys := platform.WithCrossbarSize(xb)
		row := Fig9Row{CrossbarSize: xb, Ratios: map[string]float64{}}
		wl, pol, err := odinSetup(sys, res.Model)
		if err != nil {
			return err
		}
		odin, err := odinHorizon(sys, wl, pol, base, cfg)
		if err != nil {
			return err
		}
		for _, size := range core.StandardBaselineSizes() {
			if size.R > xb || size.C > xb {
				continue // configuration does not fit this crossbar
			}
			b, err := core.NewBaseline(sys, wl, size)
			if err != nil {
				return err
			}
			sum := core.SimulateHorizon(b, cfg)
			ratio := sum.TotalEDP() / odin.TotalEDP()
			row.Ratios[size.String()] = ratio
			if ratio > row.MaxRatio {
				row.MaxRatio = ratio
			}
		}
		res.Rows[i] = row
		return nil
	}); err != nil {
		return Fig9Result{Model: res.Model}, err
	}
	return res, nil
}

// Render prints the normalised EDP per crossbar size.
func (r Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9: EDP of homogeneous OUs normalised to Odin, %s (CIFAR-100), varying crossbar size\n", r.Model)
	order := []string{"16×16", "16×4", "9×8", "8×4"}
	fmt.Fprintf(w, "%-10s", "Crossbar")
	for _, name := range order {
		fmt.Fprintf(w, "%10s", name)
	}
	fmt.Fprintf(w, "%10s\n", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%dx%-6d", row.CrossbarSize, row.CrossbarSize)
		for _, name := range order {
			if v, ok := row.Ratios[name]; ok {
				fmt.Fprintf(w, "%10.2f", v)
			} else {
				fmt.Fprintf(w, "%10s", "-")
			}
		}
		fmt.Fprintf(w, "%10.2f\n", row.MaxRatio)
	}
}
