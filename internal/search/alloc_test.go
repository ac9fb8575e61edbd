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
