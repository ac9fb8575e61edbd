// Package search implements the OU-configuration searches of Algorithm 1,
// line 6: given a layer's workload, the analytical cost models, and the
// non-ideality constraint, find the OU size (R×C)* minimising EDP subject
// to ΔG < η.
//
// Four strategies are registered, in presentation order (the order tables
// and CLIs enumerate them in), and ByName resolves one by name:
//
//   - "rb": ResourceBounded, greedy local search seeded at the policy's
//     prediction, taking at most K (paper: 3) ±1 steps in the level grid
//     and evaluating only the step neighbourhood — the low-overhead option
//     Odin uses online (§V.B "RB"). Budget = K; <= 0 is the paper's K = 3.
//   - "ex": Exhaustive, every size on the discrete grid (36 configs on a
//     128×128 crossbar). Highest quality, ~3× the comparator work (§V.B
//     "EX"). Start and budget are ignored.
//   - "bo": a TPE-style Bayesian optimizer over the discrete grid (bo.go;
//     budget = max candidate evaluations, default half the grid),
//     following the surrogate-search line of arXiv 2605.08461.
//   - "pareto": a multi-objective scan returning the non-dominated
//     (energy, latency, NF) front (pareto.go; budget ignored), following
//     arXiv 2109.05437; its single pick is the scalar-EDP minimum, the
//     same one EX makes.
//
// Every strategy reports its candidate-evaluation count and feeds each
// evaluation through Objective.Probe, so the §V.B timing-overhead
// comparison and the decision-audit log work identically for all of them.
package search

import (
	"fmt"
	"math"
	"sort"

	"odin/internal/accuracy"
	"odin/internal/ou"
)

// Objective scores candidate OU sizes for one layer at one point in time.
// Build it with core.LayerObjective: W and Amp must be the values
// Acc.Sens.Weight(Layer, Of) and Acc.Amplification(age) of the decision, so
// Feasible and NF are bit-identical to Acc.Satisfies and Acc.NF at that age.
// Its methods take a pointer so scoring a candidate copies neither the
// Objective nor its accuracy model.
type Objective struct {
	Cost  ou.CostModel
	Work  ou.LayerWork
	Acc   accuracy.Model
	Layer int // layer index j
	Of    int // total layer count

	// W is the layer's sensitivity weight w_j and Amp the drift
	// amplification A(t) at the decision's device age: the two factors of
	// the non-ideality that do not depend on the candidate size, resolved
	// once per decision rather than once per candidate.
	W, Amp float64

	// Probe, when non-nil, observes every candidate evaluation a search
	// performs (the decision-audit hook, internal/obs): the size, whether
	// it met the non-ideality constraint, and its EDP score (NaN for
	// infeasible candidates, which are never scored). The nil check is the
	// only cost when auditing is disabled — see
	// TestDisabledObsOverheadGuard at the repo root.
	Probe func(s ou.Size, feasible bool, edp float64)

	// Scratch, when non-nil, lends the search reusable buffers so the
	// candidate-evaluation hot path runs allocation-free (pinned by
	// TestSearchAllocFree, TestOptAllocFree and TestBOAllocBudget).
	// Purely observational: results are bit-identical with or without it.
	// One Scratch must not be shared by concurrent searches.
	Scratch *Scratch
}

// Scratch is a reusable per-searcher arena. The stateless strategies (RB,
// EX, Pareto) need no buffers at all; the TPE sampler keeps its working
// set here so repeated decisions on one controller reuse it.
type Scratch struct {
	bo boScratch
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// probe reports one candidate evaluation to the audit hook, if any.
func (o *Objective) probe(s ou.Size, feasible bool, edp float64) {
	if o.Probe != nil {
		o.Probe(s, feasible, edp)
	}
}

// EDP returns the energy-delay product of the layer at size s.
func (o *Objective) EDP(s ou.Size) float64 { return o.Cost.EDP(o.Work, s) }

// Feasible reports whether s meets the non-ideality constraint.
func (o *Objective) Feasible(s ou.Size) bool {
	return o.Acc.SatisfiesWith(o.W, o.Amp, s)
}

// NF returns the effective non-ideality of s (used to steer RB search out
// of infeasible regions).
func (o *Objective) NF(s ou.Size) float64 {
	return o.Acc.NFWith(o.W, o.Amp, s)
}

// ClampFeasible shrinks a (possibly infeasible) starting size to the
// nearest feasible grid point by repeatedly lowering the larger dimension's
// level — the "reduce the OU size as the conductance drift increases" move
// of §III.B. It returns the start unchanged when already feasible, and the
// smallest grid size when nothing is feasible.
func ClampFeasible(g ou.Grid, o Objective, start ou.Size) ou.Size {
	rIdx, cIdx, ok := g.IndexOf(start)
	if !ok {
		rIdx, cIdx = g.NearestIndex(start.R), g.NearestIndex(start.C)
	}
	for {
		s := g.SizeAt(rIdx, cIdx)
		if o.Feasible(s) || (rIdx == 0 && cIdx == 0) {
			return s
		}
		if rIdx >= cIdx && rIdx > 0 {
			rIdx--
		} else if cIdx > 0 {
			cIdx--
		} else {
			rIdx--
		}
	}
}

// Result is the outcome of a search. Front is non-nil only for the
// multi-objective strategy and lists the non-dominated candidates in grid
// (row-major) order.
type Result struct {
	Best        ou.Size
	BestEDP     float64
	Found       bool // false when no evaluated size satisfies the constraint
	Evaluations int  // candidate evaluations performed (comparator work)
	Front       []Point
}

// StrategyDegraded is the audit/trace strategy string the controller uses
// when no OU size satisfies η and the layer runs degraded at the smallest
// grid size. It is a controller condition, not an optimizer, so it is the
// one strategy name outside the registry.
const StrategyDegraded = "degraded"

// EX is the exhaustive scan's registry name, the strategy a low-confidence
// decision escalates to.
const EX = "ex"

// Optimizer is one registered line-6 strategy. Optimize finds an OU size
// for the layer objective o on grid g, seeded at start (already
// feasibility-clamped by the controller) and bounded by budget, the
// strategy's effort knob as the package comment lists (<= 0 selects the
// strategy default). Every Optimize is a pure function of its arguments
// (no hidden state, randomness only via internal/rng streams labelled
// from the objective) so that replays are byte-identical at any worker
// count.
//
// Name is the registry name; the controller stamps it into decision-audit
// records and trace spans verbatim.
type Optimizer struct {
	Name     string
	Optimize func(g ou.Grid, o Objective, start ou.Size, budget int) Result
}

// registry lists every strategy in presentation order.
var registry = []Optimizer{
	{"rb", func(g ou.Grid, o Objective, start ou.Size, budget int) Result {
		if budget <= 0 {
			budget = 3 // the paper's K
		}
		return ResourceBounded(g, o, start, budget)
	}},
	{EX, func(g ou.Grid, o Objective, _ ou.Size, _ int) Result { return Exhaustive(g, o) }},
	{"bo", bayesian},
	{"pareto", pareto},
}

// All returns every registered optimizer in presentation order.
func All() []Optimizer { return append([]Optimizer(nil), registry...) }

// Names returns the registered strategy names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, o := range registry {
		out[i] = o.Name
	}
	return out
}

// ByName returns the registered optimizer with the given name, or an error
// listing the valid names (sorted, for a stable message).
func ByName(name string) (Optimizer, error) {
	for _, o := range registry {
		if o.Name == name {
			return o, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return Optimizer{}, fmt.Errorf("search: unknown optimizer %q (have %v)", name, names)
}

// Exhaustive scans the whole grid and returns the feasible size with the
// minimum EDP. It walks the grid by index (row-major, the same order
// ou.Grid.Sizes lists) rather than materialising the size slice, so the
// scan is allocation-free.
func Exhaustive(g ou.Grid, o Objective) Result {
	res := Result{BestEDP: math.Inf(1)}
	n := g.Levels()
	for ri := 0; ri < n; ri++ {
		for ci := 0; ci < n; ci++ {
			s := g.SizeAt(ri, ci)
			res.Evaluations++
			if !o.Feasible(s) {
				o.probe(s, false, math.NaN())
				continue
			}
			edp := o.EDP(s)
			o.probe(s, true, edp)
			if edp < res.BestEDP {
				res.Best, res.BestEDP, res.Found = s, edp, true
			}
		}
	}
	return res
}

// move is one ±1 step in the level grid; rbMoves is the fixed ±1
// neighbourhood RB explores each step (an array, so ranging it in the hot
// loop allocates nothing).
type move struct{ dr, dc int }

var rbMoves = [4]move{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}

// ResourceBounded runs the paper's K-step local search from the policy's
// predicted size. Each step evaluates the four ±1 level neighbours of the
// current point and moves to the best feasible improvement; from an
// infeasible point it moves toward lower non-ideality (smaller OUs), the
// direction Algorithm 1 exploits as drift grows. The start point itself
// counts as one evaluation.
func ResourceBounded(g ou.Grid, o Objective, start ou.Size, k int) Result {
	rIdx, cIdx, ok := g.IndexOf(start)
	if !ok {
		// Snap off-grid predictions to the nearest grid point, one axis at
		// a time. The level set is shared by both axes (ou.Grid is square
		// by construction), so per-axis NearestIndex cannot cross R/C —
		// see the off-grid property test in props_test.go.
		rIdx, cIdx = g.NearestIndex(start.R), g.NearestIndex(start.C)
	}
	res := Result{BestEDP: math.Inf(1)}
	evaluate := func(ri, ci int) (edp float64, feasible bool) {
		s := g.SizeAt(ri, ci)
		res.Evaluations++
		if !o.Feasible(s) {
			o.probe(s, false, math.NaN())
			return math.Inf(1), false
		}
		edp = o.EDP(s)
		o.probe(s, true, edp)
		return edp, true
	}
	record := func(ri, ci int, edp float64) {
		if edp < res.BestEDP {
			res.Best, res.BestEDP, res.Found = g.SizeAt(ri, ci), edp, true
		}
	}

	curEDP, curFeasible := evaluate(rIdx, cIdx)
	if curFeasible {
		record(rIdx, cIdx, curEDP)
	}
	n := g.Levels()
	for step := 0; step < k; step++ {
		bestMove := move{}
		bestEDP := math.Inf(1)
		bestNF := math.Inf(1)
		improved := false
		for _, mv := range rbMoves {
			ri, ci := rIdx+mv.dr, cIdx+mv.dc
			if ri < 0 || ri >= n || ci < 0 || ci >= n {
				continue
			}
			edp, feasible := evaluate(ri, ci)
			if feasible {
				record(ri, ci, edp)
				if edp < bestEDP {
					bestEDP, bestMove, improved = edp, mv, true
				}
			} else if !curFeasible && !improved {
				// Infeasible region: head toward lower non-ideality.
				if nf := o.NF(g.SizeAt(ri, ci)); nf < bestNF {
					bestNF, bestMove = nf, mv
				}
			}
		}
		switch {
		case improved && (!curFeasible || bestEDP < curEDP):
			rIdx, cIdx = rIdx+bestMove.dr, cIdx+bestMove.dc
			curEDP, curFeasible = bestEDP, true
		case !curFeasible && !math.IsInf(bestNF, 1):
			rIdx, cIdx = rIdx+bestMove.dr, cIdx+bestMove.dc
			curEDP, curFeasible = math.Inf(1), false
		default:
			return res // local minimum (or stuck): stop early
		}
	}
	return res
}
