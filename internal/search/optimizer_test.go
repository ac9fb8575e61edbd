package search_test

import (
	"reflect"
	"strings"
	"testing"

	"odin/internal/ou"
	"odin/internal/search"
)

// optObjective is the objective the optimizer suites score: a two-crossbar
// 100×80 layer at position layer of an of-layer network, at device age.
func optObjective(layer, of int, age float64) search.Objective {
	return layerObjective(ou.LayerWork{Xbars: 2, RowsUsed: 100, ColsUsed: 80}, layer, of, age)
}

// optimizer returns the registered strategy name (TestRegistryNamesAndByName
// pins that every registered name resolves).
func optimizer(name string) search.Optimizer {
	o, err := search.ByName(name)
	if err != nil {
		panic(err)
	}
	return o
}

func TestRegistryNamesAndByName(t *testing.T) {
	t.Parallel()
	want := []string{"rb", "ex", "bo", "pareto"}
	if got := search.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, o := range search.All() {
		if o.Name != want[i] {
			t.Fatalf("All()[%d].Name = %q, want %q", i, o.Name, want[i])
		}
	}
	for _, name := range want {
		o, err := search.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if o.Name != name || o.Optimize == nil {
			t.Fatalf("ByName(%q) = %q (Optimize nil: %v)", name, o.Name, o.Optimize == nil)
		}
	}
	if _, err := search.ByName("gradient"); err == nil {
		t.Fatal("ByName accepted an unknown strategy")
	} else {
		for _, name := range want {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("unknown-strategy error %q does not list %q", err, name)
			}
		}
	}
}

// TestRegistryRBAndEXCallKernels pins what the "rb" and "ex" entries add
// to the kernels they call: rb maps a budget <= 0 to the paper's K = 3 and
// otherwise passes K through, while ResourceBounded itself reads K = 0 as
// "evaluate the start only"; ex scans the whole grid whatever the start
// and budget.
func TestRegistryRBAndEXCallKernels(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	o := optObjective(2, 8, 1e4)
	start := grid.SizeAt(2, 2)
	rb, ex := optimizer("rb"), optimizer(search.EX)

	for _, k := range []int{1, 3, 5} {
		if got, want := rb.Optimize(grid, o, start, k), search.ResourceBounded(grid, o, start, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("rb(k=%d) = %+v, ResourceBounded = %+v", k, got, want)
		}
	}
	paper := search.ResourceBounded(grid, o, start, 3)
	for _, budget := range []int{0, -1} {
		if got := rb.Optimize(grid, o, start, budget); !reflect.DeepEqual(got, paper) {
			t.Fatalf("rb(budget=%d) = %+v, want the paper K=3's %+v", budget, got, paper)
		}
	}
	if zero := search.ResourceBounded(grid, o, start, 0); zero.Evaluations != 1 || paper.Evaluations <= 1 {
		t.Fatalf("ResourceBounded(k=0) evaluated %d candidates, K=3 %d: want 1 and more",
			zero.Evaluations, paper.Evaluations)
	}

	want := search.Exhaustive(grid, o)
	for _, s := range []ou.Size{grid.SizeAt(0, 0), start, grid.SizeAt(5, 5)} {
		for _, budget := range []int{-1, 0, 1, 7} {
			if got := ex.Optimize(grid, o, s, budget); !reflect.DeepEqual(got, want) {
				t.Fatalf("ex(start=%v, budget=%d) = %+v, Exhaustive = %+v", s, budget, got, want)
			}
		}
	}
}

// TestBODefaultBudgetIsHalfGrid pins the headline overhead contract: with
// budget <= 0 the Bayesian optimizer spends at most half of EX's
// comparator work.
func TestBODefaultBudgetIsHalfGrid(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	o := optObjective(0, 4, 1)
	res := optimizer("bo").Optimize(grid, o, grid.SizeAt(2, 2), 0)
	half := (grid.Levels()*grid.Levels() + 1) / 2
	if res.Evaluations > half {
		t.Fatalf("bo default spent %d evaluations, want <= %d (half the grid)", res.Evaluations, half)
	}
	ex := search.Exhaustive(grid, o)
	if 2*res.Evaluations > ex.Evaluations+1 {
		t.Fatalf("bo spent %d evaluations vs EX %d — more than half", res.Evaluations, ex.Evaluations)
	}
}

// TestDominates pins the strict-dominance definition the front is built
// on: better-or-equal everywhere and strictly better somewhere.
func TestDominates(t *testing.T) {
	t.Parallel()
	base := search.Point{Energy: 1, Latency: 1, NF: 1}
	better := search.Point{Energy: 0.5, Latency: 1, NF: 1}
	mixed := search.Point{Energy: 0.5, Latency: 2, NF: 1}
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
