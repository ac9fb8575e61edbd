package search_test

import (
	"math"
	"testing"

	"odin/internal/ou"
	"odin/internal/search"
)

// TestProbeObservesEveryEvaluation: the audit hook sees exactly
// Result.Evaluations candidates, with EDP scored iff feasible, and its
// presence never changes the search outcome.
func TestProbeObservesEveryEvaluation(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	for _, tc := range []struct {
		name string
		run  func(o search.Objective) search.Result
	}{
		{"exhaustive", func(o search.Objective) search.Result { return search.Exhaustive(g, o) }},
		{"rb-feasible-start", func(o search.Objective) search.Result {
			return search.ResourceBounded(g, o, g.SizeAt(2, 2), 3)
		}},
		{"rb-infeasible-start", func(o search.Objective) search.Result {
			return search.ResourceBounded(g, o, g.SizeAt(g.Levels()-1, g.Levels()-1), 3)
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Mid-life age: mixed feasible/infeasible grid.
			o := testObjective(2, 20, 1e6)
			base := tc.run(o)

			type seen struct {
				s        ou.Size
				feasible bool
				edp      float64
			}
			var got []seen
			probed := o
			probed.Probe = func(s ou.Size, feasible bool, edp float64) {
				got = append(got, seen{s, feasible, edp})
			}
			res := tc.run(probed)

			if res != base {
				t.Fatalf("probe changed the search result: %+v vs %+v", res, base)
			}
			if len(got) != res.Evaluations {
				t.Fatalf("probe saw %d candidates, Evaluations=%d", len(got), res.Evaluations)
			}
			feasibleSeen := false
			for _, c := range got {
				if c.feasible != o.Feasible(c.s) {
					t.Fatalf("candidate %v feasibility mismatch", c.s)
				}
				if c.feasible {
					feasibleSeen = true
					if math.Abs(c.edp-o.EDP(c.s)) > 0 {
						t.Fatalf("candidate %v edp %g, want %g", c.s, c.edp, o.EDP(c.s))
					}
				} else if !math.IsNaN(c.edp) {
					t.Fatalf("infeasible candidate %v scored edp %g, want NaN", c.s, c.edp)
				}
			}
			if res.Found && !feasibleSeen {
				t.Fatal("search found a size but probe saw no feasible candidate")
			}
		})
	}
}
