package odin

import (
	"math"
	"os"
	"testing"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/ou"
	"odin/internal/search"
)

// referenceRB is a frozen copy of the pre-observability ResourceBounded
// inner loop: same moves, same records, no probe hook anywhere. It exists
// only as the baseline for TestDisabledObsOverheadGuard — if search.go's
// algorithm changes, update this copy alongside it.
func referenceRB(g ou.Grid, o search.Objective, start ou.Size, k int) search.Result {
	rIdx, cIdx, ok := g.IndexOf(start)
	if !ok {
		rIdx, cIdx = g.NearestIndex(start.R), g.NearestIndex(start.C)
	}
	res := search.Result{BestEDP: math.Inf(1)}
	evaluate := func(ri, ci int) (edp float64, feasible bool) {
		s := g.SizeAt(ri, ci)
		res.Evaluations++
		if !o.Feasible(s) {
			return math.Inf(1), false
		}
		return o.EDP(s), true
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
		type move struct{ dr, dc int }
		bestMove := move{}
		bestEDP := math.Inf(1)
		bestNF := math.Inf(1)
		improved := false
		for _, mv := range []move{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
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
			return res
		}
	}
	return res
}

// TestDisabledObsOverheadGuard holds the observability layer to its budget:
// with tracing and auditing disabled (nil Probe), the controller layer
// decision must cost within a few percent of the probe-free reference loop
// above. The ISSUE budget is <2%; the gate allows 35% headroom because
// wall-clock benchmarks on shared CI machines are noisy — a real regression
// (a probe call, an allocation, a missing nil fast path) shows up as 2×,
// not 1.1×.
//
// Timing assertions are inherently flaky under load, so the guard only arms
// when ODIN_OVERHEAD_GUARD=1 (make smoke sets it); otherwise it verifies the
// two loops still agree and skips the timing comparison.
func TestDisabledObsOverheadGuard(t *testing.T) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	pol := NewPolicy(sys, 1)
	grid := sys.Grid()
	feat := wl.FeaturesAt(4, 1e4)
	obj := core.LayerObjective(sys, wl, 4, 1e4)

	// The two loops must be the same algorithm before timing means anything.
	predicted := pol.Predict(feat)
	start := search.ClampFeasible(grid, obj, predicted)
	got := search.ResourceBounded(grid, obj, start, 3)
	want := referenceRB(grid, obj, start, 3)
	if got != want {
		t.Fatalf("instrumented search diverged from reference: %+v vs %+v", got, want)
	}

	if os.Getenv("ODIN_OVERHEAD_GUARD") != "1" {
		t.Skip("timing guard disarmed; set ODIN_OVERHEAD_GUARD=1 (make smoke) to enforce")
	}

	decision := func(rb func(ou.Grid, search.Objective, ou.Size, int) search.Result) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				predicted := pol.Predict(feat)
				start := search.ClampFeasible(grid, obj, predicted)
				_ = rb(grid, obj, start, 3)
			}
		}
	}
	// Interleave the pairs and keep the best (least-disturbed) run of each
	// side so a scheduler hiccup on one side cannot fake a regression.
	best := func(f func(*testing.B)) float64 {
		b := math.Inf(1)
		for i := 0; i < 3; i++ {
			if ns := float64(testing.Benchmark(f).NsPerOp()); ns < b {
				b = ns
			}
		}
		return b
	}
	ref := best(decision(referenceRB))
	instr := best(decision(search.ResourceBounded))
	ratio := instr / ref
	t.Logf("layer decision: reference %.0f ns/op, instrumented %.0f ns/op, ratio %.3f", ref, instr, ratio)
	if ratio > 1.35 {
		t.Fatalf("disabled observability costs %.1f%% over the probe-free reference (budget <2%%, gate 35%%)",
			(ratio-1)*100)
	}
}
