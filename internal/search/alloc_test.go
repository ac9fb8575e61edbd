package search_test

import (
	"testing"

	"odin/internal/ou"
	"odin/internal/search"
)

// TestSearchAllocFree pins the candidate-evaluation hot path at zero
// allocations per search: the exhaustive scan, the resource-bounded walk
// and the feasibility clamp run allocation-free when observability (Probe)
// is off. The decision cache's miss path relies on this — memoization only
// pays off if the live pass it wraps is itself garbage-free.
func TestSearchAllocFree(t *testing.T) {
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1e6)
	start := g.SizeAt(2, 2)
	infeasibleStart := g.SizeAt(g.Levels()-1, g.Levels()-1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Exhaustive", func() { _ = search.Exhaustive(g, o) }},
		{"ResourceBounded", func() { _ = search.ResourceBounded(g, o, start, 3) }},
		{"ClampFeasible", func() { _ = search.ClampFeasible(g, o, infeasibleStart) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(500, c.fn); avg != 0 {
				t.Fatalf("%s allocates %v per op, want 0", c.name, avg)
			}
		})
	}
}

// TestOptAllocFree pins the registry's scalar kernels at zero allocations
// per Optimize call: the "rb" and "ex" entries call the allocation-free
// walks above and must not add garbage (their Result carries no front).
// "pareto" is deliberately exempt — its Result carries the non-dominated
// front, whose allocation is the strategy's documented output, not
// overhead.
func TestOptAllocFree(t *testing.T) {
	grid := platform.Grid()
	o := optObjective(2, 8, 1e4)
	start := grid.SizeAt(2, 2)
	cases := []struct {
		name   string
		budget int
	}{{"rb", 3}, {search.EX, 0}}
	for _, c := range cases {
		opt := optimizer(c.name)
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(500, func() { _ = opt.Optimize(grid, o, start, c.budget) }); avg != 0 {
				t.Fatalf("%s allocates %v per op, want 0", c.name, avg)
			}
		})
	}
}

// TestBOAllocBudget pins the Bayesian optimizer's steady-state allocation
// profile: with a Scratch attached (the controller configuration) the TPE
// loop reuses its observation, ranking and density buffers across calls
// and allocates nothing after the first warm-up call; without a scratch
// every call pays the full buffer setup, which is the documented
// fallback, not a regression.
func TestBOAllocBudget(t *testing.T) {
	grid := platform.Grid()
	o := optObjective(2, 8, 1e4)
	o.Scratch = search.NewScratch()
	start := grid.SizeAt(2, 2)
	bo := optimizer("bo")
	warm := bo.Optimize(grid, o, start, 0) // first call allocates the scratch buffers
	if avg := testing.AllocsPerRun(200, func() {
		got := bo.Optimize(grid, o, start, 0)
		if got.Best != warm.Best {
			t.Fatalf("steady-state bo diverged: %v != %v", got.Best, warm.Best)
		}
	}); avg != 0 {
		t.Fatalf("bo with scratch allocates %v per op in steady state, want 0", avg)
	}
}
