package opt_test

import (
	"testing"

	"odin/internal/opt"
	"odin/internal/search"
)

// TestOptAllocFree pins the re-homed scalar strategies at zero allocations
// per Optimize call: "rb" and "ex" are thin wrappers over the search
// package's allocation-free walks, and the wrapper itself must not add
// garbage (Result embeds no slices for scalar strategies). "pareto" is
// deliberately exempt — its Result carries the non-dominated front, whose
// allocation is the strategy's documented output, not overhead.
func TestOptAllocFree(t *testing.T) {
	grid := platform.Grid()
	o := testObjective(2, 8, 1e4)
	start := grid.SizeAt(2, 2)
	cases := []struct {
		name string
		fn   func()
	}{
		{"rb", func() { _ = (opt.ResourceBounded{}).Optimize(grid, o, start, 3) }},
		{"ex", func() { _ = (opt.Exhaustive{}).Optimize(grid, o, start, 0) }},
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

// TestBOAllocBudget pins the Bayesian optimizer's steady-state allocation
// profile: with a search.Scratch attached (the controller configuration)
// the TPE loop reuses its observation, ranking and density buffers across
// calls and allocates nothing after the first warm-up call; without a
// scratch every call pays the full buffer setup, which is the documented
// fallback, not a regression.
func TestBOAllocBudget(t *testing.T) {
	grid := platform.Grid()
	o := testObjective(2, 8, 1e4)
	o.Scratch = search.NewScratch()
	start := grid.SizeAt(2, 2)
	bo := opt.Bayesian{}
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
