// Command ouexplore dumps the OU design-space landscape Odin searches
// over: for one layer of one zoo model at one device age, it prints the
// energy, latency, EDP and non-ideality of every OU size on the discrete
// grid, marks which sizes satisfy the η constraint, and highlights where
// each requested line-6 strategy lands (and, for the multi-objective
// strategy, which sizes sit on the non-dominated front).
//
// Usage:
//
//	ouexplore -model VGG11 -layer 4 -age 1e4
//	ouexplore -model VGG11 -layer 4 -strategy rb,ex,bo,pareto
//	ouexplore -model ResNet18 -summary -strategy bo   # per-layer picks at several ages
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/ou"
	"odin/internal/search"
)

func main() {
	var (
		modelName  = flag.String("model", "VGG11", "zoo model name")
		layer      = flag.Int("layer", 0, "layer index (0-based)")
		age        = flag.Float64("age", 1, "device age in seconds")
		summary    = flag.Bool("summary", false, "print per-layer picks at several ages instead of one landscape")
		strategies = flag.String("strategy", "ex", "comma-separated line-6 strategies to mark ("+strings.Join(search.Names(), ", ")+")")
	)
	flag.Parse()
	if err := run(*modelName, *layer, *age, *summary, *strategies); err != nil {
		fmt.Fprintln(os.Stderr, "ouexplore:", err)
		os.Exit(1)
	}
}

func run(modelName string, layer int, age float64, summary bool, strategies string) error {
	sys := core.DefaultSystem()
	model, err := dnn.ByName(modelName)
	if err != nil {
		return err
	}
	wl, err := sys.Prepare(model)
	if err != nil {
		return err
	}
	opts, err := parseStrategies(strategies)
	if err != nil {
		return err
	}
	if summary {
		return printSummary(sys, wl, opts)
	}
	if layer < 0 || layer >= wl.Layers() {
		return fmt.Errorf("layer %d out of range [0,%d)", layer, wl.Layers())
	}
	return printLandscape(sys, wl, layer, age, opts)
}

func parseStrategies(list string) ([]search.Optimizer, error) {
	var out []search.Optimizer
	for _, name := range strings.Split(list, ",") {
		o, err := search.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// startFor seeds every strategy the way Algorithm 1 would seed a cold
// policy: the paper's 16×16 default clamped into the feasible region.
func startFor(g ou.Grid, obj search.Objective) ou.Size {
	return search.ClampFeasible(g, obj, ou.Size{R: 16, C: 16})
}

func printLandscape(sys core.System, wl *core.Workload, layer int, age float64, opts []search.Optimizer) error {
	l := wl.Model.Layers[layer]
	fmt.Printf("%s layer %d (%s): kernel %dx%d, %d->%d ch, sparsity %.1f%%, %d crossbars\n",
		wl.Model.Name, layer, l.Name, l.KernelH, l.KernelW, l.InChannels, l.OutChannels,
		l.WeightSparsity*100, wl.Mappings[layer].Xbars)
	fmt.Printf("device age %.3g s (drift amplification %.2f×), η = %.2g\n\n",
		age, sys.Acc.Amplification(age), sys.Acc.Eta)

	grid := sys.Grid()
	obj := core.LayerObjective(sys, wl, layer, age)
	start := startFor(grid, obj)

	chosenBy := map[ou.Size][]string{}
	front := map[ou.Size]bool{}
	anyFound := false
	for _, o := range opts {
		res := o.Optimize(grid, obj, start, 0)
		if !res.Found {
			continue
		}
		anyFound = true
		chosenBy[res.Best] = append(chosenBy[res.Best], o.Name)
		for _, p := range res.Front {
			front[p.Size] = true
		}
	}

	fmt.Printf("%-9s %12s %12s %12s %10s %s\n", "OU", "energy (J)", "latency (s)", "EDP", "NF", "")
	for _, s := range grid.Sizes() {
		cost := obj.Cost.Evaluate(obj.Work, s)
		nf := obj.NF(s)
		mark := ""
		if !obj.Feasible(s) {
			mark = "  VIOLATES η"
		}
		if front[s] {
			mark += "  [front]"
		}
		if names := chosenBy[s]; len(names) > 0 {
			mark += "  <== " + strings.Join(names, ",")
		}
		fmt.Printf("%-9s %12.3e %12.3e %12.3e %10.2e%s\n",
			s.String(), cost.Energy, cost.Latency, cost.EDP(), nf, mark)
	}
	if !anyFound {
		fmt.Println("\nno OU size satisfies η at this age — the device must be reprogrammed")
	}
	return nil
}

func printSummary(sys core.System, wl *core.Workload, opts []search.Optimizer) error {
	ages := []float64{1, 1e2, 1e4, 1e6, 5e7}
	grid := sys.Grid()
	fmt.Printf("%s: constrained per-layer OU pick per strategy and device age\n", wl.Model.Name)
	for oi, o := range opts {
		if oi > 0 {
			fmt.Println()
		}
		fmt.Printf("strategy %s\n", o.Name)
		fmt.Printf("%-5s %-22s", "layer", "name")
		for _, a := range ages {
			fmt.Printf("%12.0e", a)
		}
		fmt.Println()
		for j := 0; j < wl.Layers(); j++ {
			fmt.Printf("%-5d %-22s", j+1, wl.Model.Layers[j].Name)
			for _, a := range ages {
				obj := core.LayerObjective(sys, wl, j, a)
				res := o.Optimize(grid, obj, startFor(grid, obj), 0)
				switch {
				case !res.Found:
					fmt.Printf("%12s", "reprog!")
				case len(res.Front) > 1:
					// The scalarized pick plus how many other trade-off
					// points share the non-dominated front.
					fmt.Printf("%12s", fmt.Sprintf("%s+%d", res.Best, len(res.Front)-1))
				default:
					fmt.Printf("%12s", res.Best.String())
				}
			}
			fmt.Println()
		}
	}
	return nil
}
