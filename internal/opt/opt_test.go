package opt_test

import (
	"math"
	"strings"
	"testing"

	"odin/internal/core"
	"odin/internal/opt"
	"odin/internal/ou"
	"odin/internal/search"
)

// platform is the default platform the optimizer tests score against (the
// same one the search package's suites use).
var platform = core.DefaultSystem()

// layerObjective builds, through core.LayerObjective (the one constructor
// of search.Objective), the default platform's objective for a layer with
// workload work at position layer of an of-layer network, at device age.
func layerObjective(work ou.LayerWork, layer, of int, age float64) search.Objective {
	works := make([]ou.LayerWork, of)
	works[layer] = work
	return core.LayerObjective(platform, &core.Workload{Works: works}, layer, age)
}

func testObjective(layer, of int, age float64) search.Objective {
	return layerObjective(ou.LayerWork{Xbars: 2, RowsUsed: 100, ColsUsed: 80}, layer, of, age)
}

func TestRegistryNamesAndByName(t *testing.T) {
	t.Parallel()
	want := []string{"rb", "ex", "bo", "pareto"}
	got := opt.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], name)
		}
		o, err := opt.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if o.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, o.Name())
		}
	}
	if _, err := opt.ByName("gradient"); err == nil {
		t.Fatal("ByName accepted an unknown strategy")
	} else if !strings.Contains(err.Error(), "bo") {
		t.Fatalf("unknown-strategy error %q does not list the valid names", err)
	}
}

// TestReHomedStrategiesMatchSearch pins the re-homing contract: the "rb"
// and "ex" registry entries produce byte-identical results to the search
// package functions they wrap, including the degenerate budget default.
func TestReHomedStrategiesMatchSearch(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	o := testObjective(2, 8, 1e4)
	start := grid.SizeAt(2, 2)

	for _, k := range []int{1, 3, 5} {
		got := (opt.ResourceBounded{}).Optimize(grid, o, start, k)
		want := search.ResourceBounded(grid, o, start, k)
		if got.Best != want.Best || got.Found != want.Found ||
			got.Evaluations != want.Evaluations ||
			math.Float64bits(got.BestEDP) != math.Float64bits(want.BestEDP) {
			t.Fatalf("rb(k=%d) = %+v, search.ResourceBounded = %+v", k, got.Result, want)
		}
	}
	if got, want := (opt.ResourceBounded{}).Optimize(grid, o, start, 0),
		search.ResourceBounded(grid, o, start, 3); got.Evaluations != want.Evaluations {
		t.Fatalf("rb default budget: %d evaluations, want the paper K=3's %d",
			got.Evaluations, want.Evaluations)
	}

	got := (opt.Exhaustive{}).Optimize(grid, o, start, 7)
	want := search.Exhaustive(grid, o)
	if got.Best != want.Best || got.Found != want.Found ||
		got.Evaluations != want.Evaluations ||
		math.Float64bits(got.BestEDP) != math.Float64bits(want.BestEDP) {
		t.Fatalf("ex = %+v, search.Exhaustive = %+v", got.Result, want)
	}
}

// TestBODefaultBudgetIsHalfGrid pins the headline overhead contract: with
// budget <= 0 the Bayesian optimizer spends at most half of EX's
// comparator work.
func TestBODefaultBudgetIsHalfGrid(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	o := testObjective(0, 4, 1)
	res := (opt.Bayesian{}).Optimize(grid, o, grid.SizeAt(2, 2), 0)
	half := (grid.Levels()*grid.Levels() + 1) / 2
	if res.Evaluations > half {
		t.Fatalf("bo default spent %d evaluations, want <= %d (half the grid)", res.Evaluations, half)
	}
	ex := (opt.Exhaustive{}).Optimize(grid, o, grid.SizeAt(2, 2), 0)
	if 2*res.Evaluations > ex.Evaluations+1 {
		t.Fatalf("bo spent %d evaluations vs EX %d — more than half", res.Evaluations, ex.Evaluations)
	}
}

// TestDominates pins the strict-dominance definition the front is built
// on: better-or-equal everywhere and strictly better somewhere.
func TestDominates(t *testing.T) {
	t.Parallel()
	base := opt.Point{Energy: 1, Latency: 1, NF: 1}
	better := opt.Point{Energy: 0.5, Latency: 1, NF: 1}
	mixed := opt.Point{Energy: 0.5, Latency: 2, NF: 1}
	if !better.Dominates(base) {
		t.Fatal("strictly better point does not dominate")
	}
	if base.Dominates(base) {
		t.Fatal("a point dominates itself")
	}
	if mixed.Dominates(base) || base.Dominates(mixed) {
		t.Fatal("trade-off points must be mutually non-dominated")
	}
}
