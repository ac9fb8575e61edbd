package search_test

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/check"
	"odin/internal/ou"
	"odin/internal/search"
)

// searchCase is one generated search problem: a workload, a layer position,
// a device age, a start point for the bounded walk, and a step budget.
type searchCase struct {
	Xbars, Rows, Cols int
	Layer, Total      int
	AgeExp            float64 // age = T0 · 10^AgeExp
	StartR, StartC    int     // level indices
	K                 int
}

func genSearchCase() check.Gen[searchCase] {
	return check.Gen[searchCase]{
		Generate: func(t *check.T) searchCase {
			total := 1 + t.Rng.Intn(12)
			return searchCase{
				Xbars: 1 + t.Rng.Intn(6),
				Rows:  1 + t.Rng.Intn(128),
				Cols:  1 + t.Rng.Intn(128),
				Layer: t.Rng.Intn(total), Total: total,
				AgeExp: t.Rng.Float64() * 8,
				StartR: t.Rng.Intn(6), StartC: t.Rng.Intn(6),
				K: 1 + t.Rng.Intn(5),
			}
		},
		Shrink: func(c searchCase) []searchCase {
			var out []searchCase
			mutInt := func(v, toward int, set func(*searchCase, int)) {
				for _, s := range check.ShrinkInt(v, toward) {
					m := c
					set(&m, s)
					out = append(out, m)
				}
			}
			mutInt(c.Xbars, 1, func(m *searchCase, v int) { m.Xbars = v })
			mutInt(c.Rows, 1, func(m *searchCase, v int) { m.Rows = v })
			mutInt(c.Cols, 1, func(m *searchCase, v int) { m.Cols = v })
			mutInt(c.StartR, 0, func(m *searchCase, v int) { m.StartR = v })
			mutInt(c.StartC, 0, func(m *searchCase, v int) { m.StartC = v })
			mutInt(c.K, 1, func(m *searchCase, v int) { m.K = v })
			if c.Total > 1 {
				m := c
				m.Total, m.Layer = 1, 0
				out = append(out, m)
			}
			for _, s := range check.ShrinkFloat(c.AgeExp, 0) {
				m := c
				m.AgeExp = s
				out = append(out, m)
			}
			return out
		},
	}
}

func (c searchCase) objective() search.Objective {
	return layerObjective(ou.LayerWork{Xbars: c.Xbars, RowsUsed: c.Rows, ColsUsed: c.Cols},
		c.Layer, c.Total, c.age())
}

// age is the case's device age, T0 · 10^AgeExp.
func (c searchCase) age() float64 {
	return platform.Device.T0 * math.Pow(10, c.AgeExp)
}

// TestPropExhaustiveOptimalOnGrid pins the EX search contract: it evaluates
// the whole grid exactly once per size, returns only legal grid sizes, and
// its answer matches a brute-force feasible-minimum recomputation.
func TestPropExhaustiveOptimalOnGrid(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genSearchCase(), func(c searchCase) error {
		o := c.objective()
		res := search.Exhaustive(grid, o)
		if want := grid.Levels() * grid.Levels(); res.Evaluations != want {
			return fmt.Errorf("EX evaluated %d candidates, want the full grid %d", res.Evaluations, want)
		}
		bestEDP, found := math.Inf(1), false
		for _, s := range grid.Sizes() {
			if !o.Feasible(s) {
				continue
			}
			found = true
			if edp := o.EDP(s); edp < bestEDP {
				bestEDP = edp
			}
		}
		if res.Found != found {
			return fmt.Errorf("EX Found=%v but brute force says %v", res.Found, found)
		}
		if !found {
			return nil
		}
		if _, _, ok := grid.IndexOf(res.Best); !ok {
			return fmt.Errorf("EX returned off-grid size %v", res.Best)
		}
		if !o.Feasible(res.Best) {
			return fmt.Errorf("EX returned infeasible size %v", res.Best)
		}
		if !(res.BestEDP <= bestEDP) || !(res.BestEDP >= bestEDP) {
			return fmt.Errorf("EX BestEDP %g != brute-force minimum %g", res.BestEDP, bestEDP)
		}
		return nil
	})
}

// TestPropResourceBoundedBudgetAndLegality pins the RB search contract: the
// evaluation count respects the 1+4K budget, any returned size is a legal,
// feasible grid point, and a feasible start is never made worse (the
// incumbent guarantee Algorithm 1 relies on).
func TestPropResourceBoundedBudgetAndLegality(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genSearchCase(), func(c searchCase) error {
		o := c.objective()
		start := grid.SizeAt(c.StartR, c.StartC)
		res := search.ResourceBounded(grid, o, start, c.K)
		if res.Evaluations < 1 || res.Evaluations > 1+4*c.K {
			return fmt.Errorf("RB evaluations %d outside [1, 1+4·%d]", res.Evaluations, c.K)
		}
		if res.Found {
			if _, _, ok := grid.IndexOf(res.Best); !ok {
				return fmt.Errorf("RB returned off-grid size %v", res.Best)
			}
			if !o.Feasible(res.Best) {
				return fmt.Errorf("RB returned infeasible size %v", res.Best)
			}
		}
		if o.Feasible(start) {
			if !res.Found {
				return fmt.Errorf("RB lost the feasible start %v", start)
			}
			if res.BestEDP > o.EDP(start)*(1+1e-12) {
				return fmt.Errorf("RB regressed below the incumbent: best %v EDP %g vs start %v EDP %g",
					res.Best, res.BestEDP, start, o.EDP(start))
			}
		}
		return nil
	})
}

// offGridCase is a generated snap problem: a crossbar size (fixing the
// grid's level count: 32→4, 64→5, 128+→6 levels), an arbitrary —
// usually off-grid and asymmetric (R≠C) — start size, and a walk budget.
// It drives the audit of the NearestIndex call sites: ou.Grid is square
// by construction, so snapping per axis with the shared level set can
// never cross the R/C axes.
type offGridCase struct {
	Crossbar       int // index into offGridCrossbars
	StartR, StartC int // raw dimensions, NOT level indices
	Layer, Total   int
	AgeExp         float64
	K              int
}

var offGridCrossbars = []int{32, 64, 128, 256}

func genOffGridCase() check.Gen[offGridCase] {
	return check.Gen[offGridCase]{
		Generate: func(t *check.T) offGridCase {
			total := 1 + t.Rng.Intn(12)
			return offGridCase{
				Crossbar: t.Rng.Intn(len(offGridCrossbars)),
				StartR:   1 + t.Rng.Intn(300),
				StartC:   1 + t.Rng.Intn(300),
				Layer:    t.Rng.Intn(total), Total: total,
				AgeExp: t.Rng.Float64() * 8,
				K:      1 + t.Rng.Intn(5),
			}
		},
		Shrink: func(c offGridCase) []offGridCase {
			var out []offGridCase
			mutInt := func(v, toward int, set func(*offGridCase, int)) {
				for _, s := range check.ShrinkInt(v, toward) {
					m := c
					set(&m, s)
					out = append(out, m)
				}
			}
			mutInt(c.Crossbar, 0, func(m *offGridCase, v int) { m.Crossbar = v })
			mutInt(c.StartR, 1, func(m *offGridCase, v int) { m.StartR = v })
			mutInt(c.StartC, 1, func(m *offGridCase, v int) { m.StartC = v })
			mutInt(c.K, 1, func(m *offGridCase, v int) { m.K = v })
			if c.Total > 1 {
				m := c
				m.Total, m.Layer = 1, 0
				out = append(out, m)
			}
			for _, s := range check.ShrinkFloat(c.AgeExp, 0) {
				m := c
				m.AgeExp = s
				out = append(out, m)
			}
			return out
		},
	}
}

// TestPropOffGridStartSnapsPerAxis audits every NearestIndex call site
// against off-grid, asymmetric starts on grids of every level count:
//
//   - NearestIndex itself matches a brute-force per-axis nearest over the
//     grid's level values (the axes share one level set, so snapping R and
//     C independently cannot cross axes);
//   - ResourceBounded from any off-grid start stays on budget, returns
//     only legal feasible grid points, and honours the snapped incumbent
//     when the snap is feasible;
//   - ClampFeasible from an off-grid start never grows beyond the snapped
//     size on either axis.
func TestPropOffGridStartSnapsPerAxis(t *testing.T) {
	t.Parallel()
	check.Run(t, genOffGridCase(), func(c offGridCase) error {
		grid := ou.DefaultGrid(offGridCrossbars[c.Crossbar])
		o := layerObjective(ou.LayerWork{Xbars: 2, RowsUsed: 100, ColsUsed: 80},
			c.Layer, c.Total, platform.Device.T0*math.Pow(10, c.AgeExp))
		// Brute-force per-axis nearest: the level values are 2^(MinLevel+i).
		nearest := func(dim int) int {
			best, bestDist := 0, math.MaxFloat64
			for idx := 0; idx < grid.Levels(); idx++ {
				if d := math.Abs(float64(dim - 1<<(grid.MinLevel+idx))); d < bestDist {
					best, bestDist = idx, d
				}
			}
			return best
		}
		for _, dim := range []int{c.StartR, c.StartC} {
			if got, want := grid.NearestIndex(dim), nearest(dim); got != want {
				return fmt.Errorf("NearestIndex(%d) = %d, want brute-force %d on %d-level grid",
					dim, got, want, grid.Levels())
			}
		}
		snap := grid.SizeAt(grid.NearestIndex(c.StartR), grid.NearestIndex(c.StartC))

		start := ou.Size{R: c.StartR, C: c.StartC}
		res := search.ResourceBounded(grid, o, start, c.K)
		if res.Evaluations < 1 || res.Evaluations > 1+4*c.K {
			return fmt.Errorf("RB evaluations %d outside [1, 1+4·%d] from off-grid start %v", res.Evaluations, c.K, start)
		}
		if res.Found {
			if _, _, ok := grid.IndexOf(res.Best); !ok {
				return fmt.Errorf("RB returned off-grid size %v from start %v", res.Best, start)
			}
			if !o.Feasible(res.Best) {
				return fmt.Errorf("RB returned infeasible size %v from start %v", res.Best, start)
			}
		}
		if o.Feasible(snap) {
			if !res.Found {
				return fmt.Errorf("RB lost the feasible snapped start %v (raw %v)", snap, start)
			}
			if res.BestEDP > o.EDP(snap)*(1+1e-12) {
				return fmt.Errorf("RB regressed below the snapped incumbent: best %v EDP %g vs snap %v EDP %g",
					res.Best, res.BestEDP, snap, o.EDP(snap))
			}
		}

		got := search.ClampFeasible(grid, o, start)
		if _, _, ok := grid.IndexOf(got); !ok {
			return fmt.Errorf("ClampFeasible returned off-grid size %v from start %v", got, start)
		}
		if got.R > snap.R || got.C > snap.C {
			return fmt.Errorf("ClampFeasible grew beyond the snap: %v from snap %v (raw start %v)", got, snap, start)
		}
		return nil
	})
}

// TestPropClampFeasibleContract pins the drift-shrink move: the result is
// always a grid point; it is feasible whenever any grid size is; a feasible
// on-grid start is returned unchanged; and the walk only ever shrinks.
func TestPropClampFeasibleContract(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genSearchCase(), func(c searchCase) error {
		o := c.objective()
		start := grid.SizeAt(c.StartR, c.StartC)
		got := search.ClampFeasible(grid, o, start)
		if _, _, ok := grid.IndexOf(got); !ok {
			return fmt.Errorf("ClampFeasible returned off-grid size %v", got)
		}
		if got.R > start.R || got.C > start.C {
			return fmt.Errorf("ClampFeasible grew the OU: %v from start %v", got, start)
		}
		if o.Feasible(start) {
			if got != start {
				return fmt.Errorf("feasible start %v moved to %v", start, got)
			}
			return nil
		}
		if o.Acc.AnySatisfiable(c.Layer, c.Total, grid, c.age()) && !o.Feasible(got) {
			return fmt.Errorf("ClampFeasible returned infeasible %v although the grid has feasible sizes", got)
		}
		return nil
	})
}
