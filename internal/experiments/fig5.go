package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/ou"
	"odin/internal/search"
)

// Fig5Snapshot is the layer-wise comparison at one device age.
type Fig5Snapshot struct {
	Age float64
	// Per-layer R×C products, in layer order.
	Offline []int // true optimum (exhaustive search with full knowledge)
	RB      []int // online policy + resource-bounded search
	EX      []int // online policy + exhaustive search
	// Agreement of each online method with the offline optimum.
	RBAgreement float64
	EXAgreement float64
}

// Fig5Result compares offline-optimal vs online-learnt layer-wise OU
// configurations for the unseen VGG11, at t ∈ {t₀, 10², 10⁴} s, and
// reports the §V.B search-overhead ratio.
type Fig5Result struct {
	Model         string
	Snapshots     []Fig5Snapshot
	RBEvaluations int     // per-layer-decision evaluations by RB
	EXEvaluations int     // per-layer-decision evaluations by EX (grid size)
	OverheadRatio float64 // EX / RB comparator work (paper: ≈3×)
}

// Fig5 reproduces the online-adaptation study. Two controllers (RB and EX),
// each adapting its own clone of the policy bootstrapped from the non-VGG
// families, run the horizon; at each snapshot age their decisions are
// compared with the exhaustive offline optimum.
func Fig5(sys core.System, base core.ControllerOptions) (Fig5Result, error) {
	res := Fig5Result{Model: "VGG11"}
	ages := []float64{1, 1e2, 1e4}
	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	controllerFor := func(strategy string) (*core.Controller, error) {
		opts := base
		opts.Strategy = strategy
		return core.NewController(sys, wl, pol.Clone(), opts)
	}
	rbCtrl, err := controllerFor("rb")
	if err != nil {
		return res, err
	}
	exCtrl, err := controllerFor("ex")
	if err != nil {
		return res, err
	}

	products := func(sizes []ou.Size) []int {
		out := make([]int, len(sizes))
		for i, s := range sizes {
			out[i] = s.Product()
		}
		return out
	}
	agreement := func(a, b []ou.Size) float64 {
		hits := 0
		for i := range a {
			if a[i] == b[i] {
				hits++
			}
		}
		return float64(hits) / float64(len(a))
	}

	// Warm the online loops with a few runs before each snapshot so the
	// policies see disagreements and adapt, as in the paper's timeline.
	var lastRB, lastEX core.RunReport
	warmups := []float64{0, 10, 30, 1e2, 3e2, 1e3, 3e3, 1e4}
	idx := 0
	for _, age := range ages {
		for idx < len(warmups) && warmups[idx] <= age {
			lastRB = rbCtrl.RunInference(warmups[idx])
			lastEX = exCtrl.RunInference(warmups[idx])
			idx++
		}
		offline := sys.OptimalSizes(wl, age)
		snap := Fig5Snapshot{
			Age:         age,
			Offline:     products(offline),
			RB:          products(lastRB.Sizes),
			EX:          products(lastEX.Sizes),
			RBAgreement: agreement(lastRB.Sizes, offline),
			EXAgreement: agreement(lastEX.Sizes, offline),
		}
		res.Snapshots = append(res.Snapshots, snap)
	}

	// Search overhead: evaluations per layer decision.
	grid := sys.Grid()
	obj := core.LayerObjective(sys, wl, 4, 1)
	rb := search.ResourceBounded(grid, obj, grid.SizeAt(2, 2), 3)
	ex := search.Exhaustive(grid, obj)
	res.RBEvaluations = rb.Evaluations
	res.EXEvaluations = ex.Evaluations
	res.OverheadRatio = float64(ex.Evaluations) / float64(rb.Evaluations)
	return res, nil
}

// Render prints the per-age layer series and the overhead ratio.
func (r Fig5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 5: offline vs online (RB/EX) layer-wise OU configurations, %s (CIFAR-10)\n", r.Model)
	for _, s := range r.Snapshots {
		fmt.Fprintf(w, "t = %.2E s  (agreement with offline: RB %.0f%%, EX %.0f%%)\n",
			s.Age, s.RBAgreement*100, s.EXAgreement*100)
		fmt.Fprintf(w, "  %-8s", "layer")
		for i := range s.Offline {
			fmt.Fprintf(w, "%6d", i+1)
		}
		fmt.Fprintln(w)
		row := func(name string, vals []int) {
			fmt.Fprintf(w, "  %-8s", name)
			for _, v := range vals {
				fmt.Fprintf(w, "%6d", v)
			}
			fmt.Fprintln(w)
		}
		row("offline", s.Offline)
		row("RB", s.RB)
		row("EX", s.EX)
	}
	fmt.Fprintf(w, "Search overhead per layer decision: EX %d evals vs RB %d evals (%.1f× higher for EX)\n",
		r.EXEvaluations, r.RBEvaluations, r.OverheadRatio)
}
