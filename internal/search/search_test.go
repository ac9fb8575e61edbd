package search_test

import (
	"math"
	"testing"

	"odin/internal/core"
	"odin/internal/ou"
	"odin/internal/search"
	"odin/internal/sparsity"
)

// platform is the default platform every test objective scores against.
var platform = core.DefaultSystem()

// layerObjective builds, through core.LayerObjective (the one constructor
// of search.Objective), the platform's objective for a layer with workload
// work at position layer of an of-layer network, at device age t.
func layerObjective(work ou.LayerWork, layer, of int, t float64) search.Objective {
	works := make([]ou.LayerWork, of)
	works[layer] = work
	return core.LayerObjective(platform, &core.Workload{Works: works}, layer, t)
}

func testObjective(layer, of int, t float64) search.Objective {
	return layerObjective(ou.LayerWork{
		Xbars:    8,
		RowsUsed: 120,
		ColsUsed: 128,
		Sparsity: sparsity.Profile{Weight: 0.6, Cluster: 0.85},
	}, layer, of, t)
}

func TestExhaustiveFindsGlobalOptimum(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	res := search.Exhaustive(g, o)
	if !res.Found {
		t.Fatal("no feasible size at t0 — calibration broken")
	}
	if res.Evaluations != 36 {
		t.Fatalf("EX evaluated %d configs, want 36", res.Evaluations)
	}
	// Verify optimality by brute force.
	for _, s := range g.Sizes() {
		if o.Feasible(s) && o.EDP(s) < res.BestEDP-1e-30 {
			t.Fatalf("EX missed better size %v (%v < %v)", s, o.EDP(s), res.BestEDP)
		}
	}
	if math.Abs(o.EDP(res.Best)-res.BestEDP) > 1e-30 {
		t.Fatal("BestEDP inconsistent with Best")
	}
}

func TestExhaustiveRespectsConstraint(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	// Late enough that only small OUs pass for an early layer.
	o := testObjective(0, 20, 1e7)
	res := search.Exhaustive(g, o)
	if res.Found && !o.Feasible(res.Best) {
		t.Fatalf("EX returned infeasible size %v", res.Best)
	}
	if res.Found {
		nfBest := o.NF(res.Best)
		if nfBest >= o.Acc.Eta {
			t.Fatalf("returned size violates η: %v", nfBest)
		}
	}
}

func TestExhaustiveInfeasibleEverywhere(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(0, 20, 1e13) // far past any deadline
	res := search.Exhaustive(g, o)
	if res.Found {
		t.Fatalf("found %v despite universal violation", res.Best)
	}
	if res.Evaluations != 36 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
}

func TestResourceBoundedFromOptimumStaysThere(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	ex := search.Exhaustive(g, o)
	rb := search.ResourceBounded(g, o, ex.Best, 3)
	if !rb.Found {
		t.Fatal("RB lost a feasible start")
	}
	if rb.BestEDP > ex.BestEDP*(1+1e-12) {
		t.Fatalf("RB from the optimum regressed: %v vs %v", rb.BestEDP, ex.BestEDP)
	}
}

func TestResourceBoundedCheaperThanExhaustive(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	ex := search.Exhaustive(g, o)
	rb := search.ResourceBounded(g, o, g.SizeAt(2, 2), 3)
	if rb.Evaluations >= ex.Evaluations {
		t.Fatalf("RB (%d evals) not cheaper than EX (%d)", rb.Evaluations, ex.Evaluations)
	}
	// §V.B: EX ≈ 3× the comparator work of RB (K=3).
	ratio := float64(ex.Evaluations) / float64(rb.Evaluations)
	if ratio < 1.5 {
		t.Fatalf("EX/RB evaluation ratio %v implausibly low", ratio)
	}
}

func TestResourceBoundedImprovesOnBadStart(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	start := g.SizeAt(5, 5) // 128×128 — likely far from optimal
	rb := search.ResourceBounded(g, o, start, 3)
	if !rb.Found {
		t.Fatal("RB found nothing from a feasible region")
	}
	if o.Feasible(start) && rb.BestEDP > o.EDP(start)*(1+1e-12) {
		t.Fatalf("RB did worse (%v) than its start (%v)", rb.BestEDP, o.EDP(start))
	}
}

func TestResourceBoundedEscapesInfeasibleStart(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	// Early layer at high drift: large OUs infeasible, small ones OK.
	o := testObjective(0, 20, 5e6)
	small := search.Exhaustive(g, o)
	if !small.Found {
		t.Skip("calibration leaves nothing feasible at this time")
	}
	// The feasible region may sit at the far corner of the 6×6 level grid;
	// give the walk enough budget to traverse it (Manhattan diameter 10).
	rb := search.ResourceBounded(g, o, g.SizeAt(5, 5), 12)
	if !rb.Found {
		t.Fatalf("RB failed to walk from 128×128 toward feasible %v", small.Best)
	}
	if !o.Feasible(rb.Best) {
		t.Fatalf("RB returned infeasible %v", rb.Best)
	}
}

func TestResourceBoundedOffGridStartSnaps(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	rb := search.ResourceBounded(g, o, ou.Size{R: 9, C: 8}, 3) // the 9×8 baseline is off-grid
	if !rb.Found {
		t.Fatal("RB from off-grid start found nothing")
	}
	if _, _, ok := g.IndexOf(rb.Best); !ok {
		t.Fatalf("RB returned off-grid size %v", rb.Best)
	}
}

func TestResourceBoundedZeroStepsEvaluatesStartOnly(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	rb := search.ResourceBounded(g, o, g.SizeAt(2, 2), 0)
	if rb.Evaluations != 1 {
		t.Fatalf("K=0 evaluated %d configs, want 1", rb.Evaluations)
	}
	if !rb.Found || rb.Best != g.SizeAt(2, 2) {
		t.Fatalf("K=0 should return the start when feasible, got %+v", rb)
	}
}

func TestResourceBoundedEvaluationBudget(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	for _, k := range []int{1, 2, 3, 5} {
		rb := search.ResourceBounded(g, o, g.SizeAt(3, 3), k)
		if max := 1 + 4*k; rb.Evaluations > max {
			t.Fatalf("K=%d evaluated %d configs, budget %d", k, rb.Evaluations, max)
		}
	}
}

func TestSearchAgreementOverTimeSweep(t *testing.T) {
	t.Parallel()
	// RB (seeded with EX's previous answer, as the online loop effectively
	// does once the policy adapts) should track EX closely across the drift
	// sweep — the Fig. 5 observation.
	g := ou.DefaultGrid(128)
	prev := g.SizeAt(2, 2)
	for _, tt := range []float64{1, 1e2, 1e4, 1e6} {
		o := testObjective(3, 20, tt)
		ex := search.Exhaustive(g, o)
		rb := search.ResourceBounded(g, o, prev, 3)
		if ex.Found != rb.Found && ex.Found {
			// RB may need a couple of runs to walk far; allow one miss but
			// not a feasibility disagreement when seeded adjacent.
			t.Logf("t=%v: EX found %v, RB missed", tt, ex.Best)
		}
		if ex.Found && rb.Found {
			if rb.BestEDP > ex.BestEDP*4 {
				t.Fatalf("t=%v: RB EDP %v far from EX %v", tt, rb.BestEDP, ex.BestEDP)
			}
			prev = rb.Best
		}
	}
}

func TestClampFeasibleIdentityWhenFeasible(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	s := g.SizeAt(2, 2)
	if got := search.ClampFeasible(g, o, s); got != s {
		t.Fatalf("feasible start %v clamped to %v", s, got)
	}
}

func TestClampFeasibleShrinksToFeasible(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	// Early layer at high drift: large sizes infeasible.
	o := testObjective(0, 20, 5e6)
	got := search.ClampFeasible(g, o, g.SizeAt(5, 5))
	if !o.Feasible(got) {
		t.Fatalf("clamp returned infeasible %v", got)
	}
	if _, _, ok := g.IndexOf(got); !ok {
		t.Fatalf("clamp returned off-grid %v", got)
	}
}

func TestClampFeasibleBottomsOutAtSmallest(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(0, 20, 1e13) // nothing feasible
	if got := search.ClampFeasible(g, o, g.SizeAt(5, 5)); got != g.SizeAt(0, 0) {
		t.Fatalf("clamp should bottom out at 4×4, got %v", got)
	}
}

func TestClampFeasibleSnapsOffGrid(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	o := testObjective(5, 20, 1)
	got := search.ClampFeasible(g, o, ou.Size{R: 9, C: 8})
	if _, _, ok := g.IndexOf(got); !ok {
		t.Fatalf("off-grid start not snapped: %v", got)
	}
}

// Property: ClampFeasible's result is always on the grid, and feasible
// whenever anything is feasible.
func TestClampFeasibleProperty(t *testing.T) {
	t.Parallel()
	g := ou.DefaultGrid(128)
	for _, layer := range []int{0, 5, 19} {
		for _, tt := range []float64{1, 1e3, 1e6, 1e8} {
			o := testObjective(layer, 20, tt)
			anyFeasible := o.Feasible(g.SizeAt(0, 0))
			for r := 0; r < g.Levels(); r++ {
				for c := 0; c < g.Levels(); c++ {
					got := search.ClampFeasible(g, o, g.SizeAt(r, c))
					if _, _, ok := g.IndexOf(got); !ok {
						t.Fatalf("off-grid clamp result %v", got)
					}
					if anyFeasible && !o.Feasible(got) {
						t.Fatalf("layer %d t=%v start (%d,%d): clamp missed feasible region",
							layer, tt, r, c)
					}
				}
			}
		}
	}
}
