package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/ou"
	"odin/internal/par"
)

// Fig3Row is one layer of the Fig. 3 plot.
type Fig3Row struct {
	Layer          int
	Name           string
	Size           ou.Size
	Product        int
	WeightSparsity float64 // percent
	Skip           bool
}

// Fig3Result holds the layer-wise OU sizes and sparsity for ResNet18 at t₀.
type Fig3Result struct {
	Model string
	Rows  []Fig3Row
}

// Fig3 reproduces the Fig. 3 study.
func Fig3(sys core.System) (Fig3Result, error) {
	model := dnn.NewResNet18()
	wl, err := sys.Prepare(model)
	if err != nil {
		return Fig3Result{}, err
	}
	sizes := sys.OptimalSizes(wl, sys.Device.T0)
	res := Fig3Result{Model: model.Name}
	for j, s := range sizes {
		l := model.Layers[j]
		res.Rows = append(res.Rows, Fig3Row{
			Layer:          j + 1,
			Name:           l.Name,
			Size:           s,
			Product:        s.Product(),
			WeightSparsity: l.WeightSparsity * 100,
			Skip:           l.Skip,
		})
	}
	return res, nil
}

// Render prints the per-layer series of Fig. 3.
func (r Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3: Layer-wise OU size and weight sparsity for %s (CIFAR-10) at t = t0\n", r.Model)
	fmt.Fprintf(w, "%-5s %-22s %-8s %-10s %s\n", "Layer", "Name", "OU", "R×C", "Sparsity(%)")
	for _, row := range r.Rows {
		tag := ""
		if row.Skip {
			tag = " (skip)"
		}
		fmt.Fprintf(w, "%-5d %-22s %-8s %-10d %.1f%s\n",
			row.Layer, row.Name, row.Size.String(), row.Product, row.WeightSparsity, tag)
	}
}

// Fig4Result is the OU-size distribution at a set of device ages: for each
// age, how many DNN layers use each OU configuration.
type Fig4Result struct {
	Model string
	Ages  []float64
	// Counts[i] maps "R×C" → number of layers at Ages[i].
	Counts []map[string]int
	// MeanProduct[i] is the layer-average R×C product at Ages[i] (the
	// distribution's centre of mass, which shifts left over time).
	MeanProduct []float64
}

// Fig4 reproduces the distribution-shift study for ResNet18.
func Fig4(sys core.System, ages []float64) (Fig4Result, error) {
	if len(ages) == 0 {
		ages = []float64{1, 1e2, 1e4, 1e6, 5e7}
	}
	model := dnn.NewResNet18()
	wl, err := sys.Prepare(model)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{
		Model:       model.Name,
		Ages:        ages,
		Counts:      make([]map[string]int, len(ages)),
		MeanProduct: make([]float64, len(ages)),
	}
	// Index-sharded age sweep: each goroutine fills only res.Counts[i] /
	// res.MeanProduct[i], so the histogram is identical at any worker count.
	par.Each(0, len(ages), func(i int) {
		sizes := sys.OptimalSizes(wl, ages[i])
		counts := make(map[string]int)
		total := 0
		for _, s := range sizes {
			counts[s.String()]++
			total += s.Product()
		}
		res.Counts[i] = counts
		res.MeanProduct[i] = float64(total) / float64(len(sizes))
	})
	return res, nil
}

// Render prints a histogram per age.
func (r Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 4: OU size distribution shift under conductance drift (%s, CIFAR-10)\n", r.Model)
	for i, age := range r.Ages {
		fmt.Fprintf(w, "t = %.2E s (mean R×C product %.0f):\n", age, r.MeanProduct[i])
		keys := make([]string, 0, len(r.Counts[i]))
		for k := range r.Counts[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			n := r.Counts[i][k]
			fmt.Fprintf(w, "  %-8s %2d layers %s\n", k, n, strings.Repeat("#", n))
		}
	}
}
