package search

import (
	"math"

	"odin/internal/ou"
)

// Point is one feasible candidate with the scores the multi-objective
// front is computed over (the analytical Eq. 1/2 costs and the effective
// non-ideality at the decision's device age).
type Point struct {
	Size    ou.Size
	Energy  float64 // J
	Latency float64 // s
	NF      float64 // effective non-ideality
	EDP     float64 // J·s (Energy·Latency)
}

// Dominates reports strict Pareto dominance: p is no worse than q on every
// objective (energy, latency, NF — all minimised) and strictly better on
// at least one.
func (p Point) Dominates(q Point) bool {
	if p.Energy > q.Energy || p.Latency > q.Latency || p.NF > q.NF {
		return false
	}
	return p.Energy < q.Energy || p.Latency < q.Latency || p.NF < q.NF
}

// pareto ("pareto") is the multi-objective strategy: instead of collapsing
// a layer decision to scalar EDP, it scans the full grid and returns the
// non-dominated front over (energy, latency, non-ideality) — the
// trade-off surface arXiv 2109.05437 shows a scalar objective hides on
// exactly this class of crossbar design spaces. Budget and start are
// ignored; like EX the full grid is always evaluated (Levels² candidate
// evaluations), so the front is exact, not sampled.
//
// Scalarization contract: the single pick handed to the controller
// (Result.Best) is the scalar-EDP minimum over the feasible set, scanned
// in row-major grid order with strict improvement — byte-for-byte the
// same pick EX makes, so switching the controller between "ex" and
// "pareto" changes only the audit front, never the decision. Because
// energy and latency are both positive, the EDP minimum is always
// EDP-tied with a front member (any dominator would have EDP at most as
// low), which makes the pick a canonical representative of the front.
func pareto(g ou.Grid, o Objective, _ ou.Size, _ int) Result {
	res := Result{BestEDP: math.Inf(1)}
	n := g.Levels()
	feasible := make([]Point, 0, n*n)
	for ri := 0; ri < n; ri++ {
		for ci := 0; ci < n; ci++ {
			s := g.SizeAt(ri, ci)
			res.Evaluations++
			if !o.Feasible(s) {
				o.probe(s, false, math.NaN())
				continue
			}
			cost := o.Cost.Evaluate(o.Work, s)
			p := Point{Size: s, Energy: cost.Energy, Latency: cost.Latency,
				NF: o.NF(s), EDP: cost.EDP()}
			o.probe(s, true, p.EDP)
			if p.EDP < res.BestEDP {
				res.Best, res.BestEDP, res.Found = s, p.EDP, true
			}
			feasible = append(feasible, p)
		}
	}
	res.Front = front(feasible)
	return res
}

// front filters a feasible candidate set down to its non-dominated
// members, preserving the input (row-major grid) order. O(m²) on m ≤
// Levels² points.
func front(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	out := make([]Point, 0, len(points))
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && q.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
