package experiments

import (
	"fmt"
	"io"
	"math"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/opt"
	"odin/internal/ou"
	"odin/internal/par"
	"odin/internal/search"
)

// optCompareAgeExps are the drift ages the head-to-head comparison scores
// each layer decision at, as decades past programming: t₀·10⁰ (fresh),
// t₀·10⁴ (mid-life) and t₀·10⁶ (near the reprogramming regime). Together
// they cover the feasibility-region shrink Fig. 4 shows.
var optCompareAgeExps = []float64{0, 4, 6}

// OptStrategyStats aggregates one optimizer's line-6 behaviour over every
// (layer, age) decision of one workload.
type OptStrategyStats struct {
	Strategy string

	// EvalsPerDecision is the mean comparator budget spent per decision —
	// the head-to-head cost axis (EX pays the full grid, RB 1+4K, BO at
	// most half the grid).
	EvalsPerDecision float64

	// EvalsToOptimum is the mean candidate count until the returned best
	// was first scored, over decisions that found a feasible size: how
	// quickly the strategy reaches its final answer, not just when it
	// stops looking.
	EvalsToOptimum float64

	// EDPRatio is Σ best-EDP over feasible decisions divided by EX's sum —
	// the equal-budget quality axis (1.0 means the strategy matched the
	// exhaustive optimum everywhere).
	EDPRatio float64

	// MeanFrontSize is the mean non-dominated front cardinality per
	// feasible decision; zero for the scalar strategies.
	MeanFrontSize float64
}

// OptCompareRow is one workload's head-to-head table.
type OptCompareRow struct {
	Workload  string
	Dataset   string
	Decisions int // layers × ages
	Feasible  int // decisions where at least one OU size satisfied η
	Stats     []OptStrategyStats
}

// OptCompareResult is the cross-workload optimizer comparison.
type OptCompareResult struct {
	Ages []float64 // decision ages (s)
	Rows []OptCompareRow
}

// OptCompare runs every registered line-6 strategy on every layer decision
// of every zoo workload at three drift ages, from the same clamped 16×16
// start Algorithm 1 would seed a cold policy with. Workloads are simulated
// in parallel (each goroutine prepares its own workload and fills only
// rows[i]); strategies share nothing across decisions, so the table is
// byte-identical at any worker count.
func OptCompare(sys core.System) (OptCompareResult, error) {
	grid := sys.Grid()
	strategies := opt.All()
	t0 := sys.Acc.Device.T0
	res := OptCompareResult{}
	for _, exp := range optCompareAgeExps {
		res.Ages = append(res.Ages, t0*math.Pow(10, exp))
	}

	models := dnn.AllWorkloads()
	rows := make([]OptCompareRow, len(models))
	if err := par.ForEach(0, len(models), func(i int) error {
		model := models[i]
		wl, err := sys.Prepare(model)
		if err != nil {
			return err
		}
		row := OptCompareRow{Workload: model.Name, Dataset: model.Dataset.Name}

		type tally struct {
			evals, toOpt, fronts int
			found                int
			edp                  float64
		}
		tallies := make([]tally, len(strategies))

		for _, age := range res.Ages {
			for j := 0; j < wl.Layers(); j++ {
				obj := core.LayerObjective(sys, wl, j, age)
				start := search.ClampFeasible(grid, obj, ou.Size{R: 16, C: 16})
				row.Decisions++
				feasible := false
				for si, strat := range strategies {
					var seen []ou.Size
					probed := obj
					probed.Probe = func(s ou.Size, _ bool, _ float64) {
						seen = append(seen, s)
					}
					r := strat.Optimize(grid, probed, start, 0)
					tallies[si].evals += r.Evaluations
					if !r.Found {
						continue
					}
					feasible = true
					tallies[si].found++
					tallies[si].edp += r.BestEDP
					tallies[si].fronts += len(r.Front)
					for k, s := range seen {
						if s == r.Best {
							tallies[si].toOpt += k + 1
							break
						}
					}
				}
				if feasible {
					row.Feasible++
				}
			}
		}

		var exEDP float64
		for si, strat := range strategies {
			if strat.Name() == (opt.Exhaustive{}).Name() {
				exEDP = tallies[si].edp
			}
		}
		for si, strat := range strategies {
			tl := tallies[si]
			st := OptStrategyStats{
				Strategy:         strat.Name(),
				EvalsPerDecision: float64(tl.evals) / float64(row.Decisions),
			}
			if tl.found > 0 {
				st.EvalsToOptimum = float64(tl.toOpt) / float64(tl.found)
				st.MeanFrontSize = float64(tl.fronts) / float64(tl.found)
			}
			if exEDP > 0 {
				st.EDPRatio = tl.edp / exEDP
			}
			row.Stats = append(row.Stats, st)
		}
		rows[i] = row
		return nil
	}); err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Render prints one head-to-head block per workload: comparator cost,
// candidate-evaluations-to-optimum, equal-budget EDP quality against the
// exhaustive optimum, and the mean non-dominated front size.
func (r OptCompareResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Line-6 optimizer head-to-head: zoo workloads × device ages")
	for _, age := range r.Ages {
		fmt.Fprintf(w, "  %.3g s", age)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\n%s (%s): %d decisions, %d feasible\n",
			row.Workload, row.Dataset, row.Decisions, row.Feasible)
		fmt.Fprintf(w, "%8s %12s %12s %14s %8s\n",
			"strategy", "evals/dec", "evals→opt", "EDP vs EX", "front")
		for _, st := range row.Stats {
			front := fmt.Sprintf("%8s", "-")
			if st.MeanFrontSize > 0 {
				front = fmt.Sprintf("%8.2f", st.MeanFrontSize)
			}
			fmt.Fprintf(w, "%8s %12.2f %12.2f %14.4f %s\n",
				st.Strategy, st.EvalsPerDecision, st.EvalsToOptimum, st.EDPRatio, front)
		}
	}
}
