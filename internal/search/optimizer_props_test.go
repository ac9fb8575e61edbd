package search_test

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/check"
	"odin/internal/ou"
	"odin/internal/search"
)

// optCase is one generated optimizer problem: a per-crossbar workload, a
// layer position, a device age, a start point and an effort budget —
// searchCase's shape, with the wider budget range bo interprets as an
// evaluation cap.
type optCase struct {
	Xbars, Rows, Cols int
	Layer, Total      int
	AgeExp            float64 // age = T0 · 10^AgeExp
	StartR, StartC    int     // level indices
	Budget            int
}

func genOptCase() check.Gen[optCase] {
	return check.Gen[optCase]{
		Generate: func(t *check.T) optCase {
			total := 1 + t.Rng.Intn(12)
			return optCase{
				Xbars: 1 + t.Rng.Intn(6),
				Rows:  1 + t.Rng.Intn(128),
				Cols:  1 + t.Rng.Intn(128),
				Layer: t.Rng.Intn(total), Total: total,
				AgeExp: t.Rng.Float64() * 8,
				StartR: t.Rng.Intn(6), StartC: t.Rng.Intn(6),
				Budget: 1 + t.Rng.Intn(40),
			}
		},
		Shrink: func(c optCase) []optCase {
			var out []optCase
			mutInt := func(v, toward int, set func(*optCase, int)) {
				for _, s := range check.ShrinkInt(v, toward) {
					m := c
					set(&m, s)
					out = append(out, m)
				}
			}
			mutInt(c.Xbars, 1, func(m *optCase, v int) { m.Xbars = v })
			mutInt(c.Rows, 1, func(m *optCase, v int) { m.Rows = v })
			mutInt(c.Cols, 1, func(m *optCase, v int) { m.Cols = v })
			mutInt(c.StartR, 0, func(m *optCase, v int) { m.StartR = v })
			mutInt(c.StartC, 0, func(m *optCase, v int) { m.StartC = v })
			mutInt(c.Budget, 1, func(m *optCase, v int) { m.Budget = v })
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

func (c optCase) objective() search.Objective {
	return layerObjective(ou.LayerWork{Xbars: c.Xbars, RowsUsed: c.Rows, ColsUsed: c.Cols},
		c.Layer, c.Total, platform.Device.T0*math.Pow(10, c.AgeExp))
}

// TestPropBOBudgetAndIncumbent pins the Bayesian optimizer's Algorithm 1
// contract: it never exceeds its evaluation budget (nor the grid), any
// returned size is a legal feasible grid point, and a feasible start is
// never lost — on failure to improve, the incumbent comes back (the same
// guarantee RB gives line 6).
func TestPropBOBudgetAndIncumbent(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genOptCase(), func(c optCase) error {
		o := c.objective()
		start := grid.SizeAt(c.StartR, c.StartC)
		res := optimizer("bo").Optimize(grid, o, start, c.Budget)
		maxEvals := c.Budget
		if total := grid.Levels() * grid.Levels(); maxEvals > total {
			maxEvals = total
		}
		if res.Evaluations < 1 || res.Evaluations > maxEvals {
			return fmt.Errorf("bo evaluations %d outside [1, %d]", res.Evaluations, maxEvals)
		}
		if res.Found {
			if _, _, ok := grid.IndexOf(res.Best); !ok {
				return fmt.Errorf("bo returned off-grid size %v", res.Best)
			}
			if !o.Feasible(res.Best) {
				return fmt.Errorf("bo returned infeasible size %v", res.Best)
			}
		}
		if o.Feasible(start) {
			if !res.Found {
				return fmt.Errorf("bo lost the feasible start %v", start)
			}
			if res.BestEDP > o.EDP(start)*(1+1e-12) {
				return fmt.Errorf("bo regressed below the incumbent: best %v EDP %g vs start %v EDP %g",
					res.Best, res.BestEDP, start, o.EDP(start))
			}
		}
		return nil
	})
}

// TestPropBOSeedReplayable pins determinism: Optimize is a pure function
// of its arguments (randomness flows only through the objective-labelled
// internal/rng stream), so two calls with the same inputs — and the probe
// sequences they emit — are identical. This is what keeps serve-layer
// replays and odinlint's detflow contract clean, and it is what makes an
// odincheck trial-0 seed line replay a BO decision exactly.
func TestPropBOSeedReplayable(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genOptCase(), func(c optCase) error {
		o := c.objective()
		start := grid.SizeAt(c.StartR, c.StartC)
		type ev struct {
			s        ou.Size
			feasible bool
			edpBits  uint64
		}
		var seqA, seqB []ev
		var resA, resB search.Result
		{
			oo := o
			oo.Probe = func(s ou.Size, feasible bool, edp float64) {
				seqA = append(seqA, ev{s, feasible, math.Float64bits(edp)})
			}
			resA = optimizer("bo").Optimize(grid, oo, start, c.Budget)
		}
		{
			oo := o
			oo.Probe = func(s ou.Size, feasible bool, edp float64) {
				seqB = append(seqB, ev{s, feasible, math.Float64bits(edp)})
			}
			resB = optimizer("bo").Optimize(grid, oo, start, c.Budget)
		}
		if resA.Best != resB.Best || resA.Found != resB.Found ||
			resA.Evaluations != resB.Evaluations ||
			math.Float64bits(resA.BestEDP) != math.Float64bits(resB.BestEDP) {
			return fmt.Errorf("bo replay diverged: %+v vs %+v", resA, resB)
		}
		if len(seqA) != len(seqB) {
			return fmt.Errorf("bo replay probe counts diverged: %d vs %d", len(seqA), len(seqB))
		}
		for i := range seqA {
			if seqA[i] != seqB[i] {
				return fmt.Errorf("bo replay candidate %d diverged: %+v vs %+v", i, seqA[i], seqB[i])
			}
		}
		return nil
	})
}

// TestPropParetoFrontContract pins the multi-objective strategy:
//
//   - the scalar pick is byte-identical to EX's (the documented min-EDP
//     scalarization over the same row-major scan);
//   - the front is mutually non-dominated;
//   - the front is complete — every feasible grid point outside it is
//     dominated by a member;
//   - the front contains the EX scalar-EDP optimum;
//   - like EX it always evaluates the full grid.
func TestPropParetoFrontContract(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genOptCase(), func(c optCase) error {
		o := c.objective()
		res := optimizer("pareto").Optimize(grid, o, grid.SizeAt(c.StartR, c.StartC), c.Budget)
		ex := search.Exhaustive(grid, o)
		if res.Evaluations != ex.Evaluations {
			return fmt.Errorf("pareto evaluated %d candidates, want the full grid %d", res.Evaluations, ex.Evaluations)
		}
		if res.Found != ex.Found || res.Best != ex.Best ||
			math.Float64bits(res.BestEDP) != math.Float64bits(ex.BestEDP) {
			return fmt.Errorf("pareto scalar pick %+v diverges from EX %+v", res, ex)
		}
		for i, p := range res.Front {
			for j, q := range res.Front {
				if i != j && q.Dominates(p) {
					return fmt.Errorf("front member %v dominated by member %v", p.Size, q.Size)
				}
			}
		}
		inFront := func(s ou.Size) bool {
			for _, p := range res.Front {
				if p.Size == s {
					return true
				}
			}
			return false
		}
		if ex.Found && !inFront(ex.Best) {
			return fmt.Errorf("front %d members does not contain the EX optimum %v", len(res.Front), ex.Best)
		}
		for _, s := range grid.Sizes() {
			if !o.Feasible(s) || inFront(s) {
				continue
			}
			cost := o.Cost.Evaluate(o.Work, s)
			p := search.Point{Size: s, Energy: cost.Energy, Latency: cost.Latency, NF: o.NF(s), EDP: cost.EDP()}
			dominated := false
			for _, q := range res.Front {
				if q.Dominates(p) {
					dominated = true
					break
				}
			}
			if !dominated {
				return fmt.Errorf("feasible size %v is non-dominated but missing from the front", s)
			}
		}
		if !res.Found && len(res.Front) != 0 {
			return fmt.Errorf("no feasible size but front has %d members", len(res.Front))
		}
		return nil
	})
}

// TestPropProbeCountsEveryCandidate pins the audit contract for all four
// registered strategies: the decision-audit Probe hook fires exactly once
// per reported candidate evaluation, with infeasible candidates carrying
// NaN scores — what core.Controller's audit log relies on to reconcile
// candidates against budgets regardless of strategy.
func TestPropProbeCountsEveryCandidate(t *testing.T) {
	t.Parallel()
	grid := platform.Grid()
	check.Run(t, genOptCase(), func(c optCase) error {
		o := c.objective()
		start := grid.SizeAt(c.StartR, c.StartC)
		for _, strat := range search.All() {
			probes := 0
			bad := false
			oo := o
			oo.Probe = func(s ou.Size, feasible bool, edp float64) {
				probes++
				if feasible == math.IsNaN(edp) {
					bad = true
				}
			}
			res := strat.Optimize(grid, oo, start, c.Budget)
			if probes != res.Evaluations {
				return fmt.Errorf("%s probed %d candidates for %d evaluations", strat.Name, probes, res.Evaluations)
			}
			if bad {
				return fmt.Errorf("%s probed a candidate whose feasibility disagrees with its score", strat.Name)
			}
		}
		return nil
	})
}
