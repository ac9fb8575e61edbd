package core

import (
	"testing"

	"odin/internal/dnn"
	"odin/internal/obs"
)

// strategyController builds an audited controller for VGG11 running the
// named line-6 strategy.
func strategyController(t *testing.T, strategy string) (*Controller, *obs.AuditLog) {
	t.Helper()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewAuditLog()
	opts := DefaultControllerOptions()
	opts.Strategy = strategy
	opts.Audit = log
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, log
}

// TestControllerStrategyAttribution pins the Name()-driven attribution
// contract: whatever registered optimizer drives line 6, the decision
// audit carries its registry name verbatim, candidates reconcile with the
// budget, and only the multi-objective strategy records a front.
func TestControllerStrategyAttribution(t *testing.T) {
	t.Parallel()
	for _, strategy := range []string{"rb", "ex", "bo", "pareto"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			t.Parallel()
			ctrl, log := strategyController(t, strategy)
			if got := ctrl.Strategy(); got != strategy {
				t.Fatalf("Controller.Strategy() = %q, want %q", got, strategy)
			}
			rep := ctrl.RunInference(0)
			runs := log.Runs()
			if len(runs) != 1 {
				t.Fatalf("audit recorded %d runs, want 1", len(runs))
			}
			evals := 0
			for j, d := range runs[0].Layers {
				if d.Strategy != strategy {
					t.Fatalf("layer %d attributed to %q, want %q", j, d.Strategy, strategy)
				}
				if len(d.Candidates) != d.Evaluations {
					t.Fatalf("layer %d recorded %d candidates for %d evaluations",
						j, len(d.Candidates), d.Evaluations)
				}
				if strategy == "pareto" {
					if len(d.Front) == 0 {
						t.Fatalf("layer %d pareto decision carries no front", j)
					}
					chosenTied := false
					for _, s := range d.Front {
						if s == d.Chosen {
							chosenTied = true
						}
					}
					if !chosenTied {
						t.Fatalf("layer %d chosen %v not on the recorded front %v", j, d.Chosen, d.Front)
					}
				} else if len(d.Front) != 0 {
					t.Fatalf("layer %d scalar strategy %q recorded a front", j, strategy)
				}
				evals += d.Evaluations
			}
			if evals != rep.SearchEvaluations {
				t.Fatalf("audit evaluations %d, report says %d", evals, rep.SearchEvaluations)
			}
		})
	}
}

// TestControllerStrategyBudgets pins the per-strategy comparator cost on a
// fresh device: EX and Pareto pay the full grid per layer, BO at most half
// of it, RB the paper's 1+4K.
func TestControllerStrategyBudgets(t *testing.T) {
	t.Parallel()
	evalsFor := func(strategy string) (int, int) {
		ctrl, _ := strategyController(t, strategy)
		rep := ctrl.RunInference(0)
		return rep.SearchEvaluations, len(rep.Sizes)
	}
	grid := DefaultSystem().Grid()
	full := grid.Levels() * grid.Levels()

	ex, layers := evalsFor("ex")
	if ex != full*layers {
		t.Fatalf("ex spent %d evaluations, want %d layers × %d", ex, layers, full)
	}
	pareto, _ := evalsFor("pareto")
	if pareto != ex {
		t.Fatalf("pareto spent %d evaluations, want EX's %d", pareto, ex)
	}
	bo, _ := evalsFor("bo")
	if 2*bo > ex {
		t.Fatalf("bo spent %d evaluations, more than half of EX's %d", bo, ex)
	}
	rb, _ := evalsFor("rb")
	if rb > layers*(1+4*3) {
		t.Fatalf("rb spent %d evaluations, above the 1+4K budget for %d layers", rb, layers)
	}
}

// TestControllerUnknownStrategy pins construction-time validation.
func TestControllerUnknownStrategy(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultControllerOptions()
	opts.Strategy = "anneal"
	if _, err := NewController(sys, wl, freshPolicy(sys), opts); err == nil {
		t.Fatal("NewController accepted an unknown strategy")
	}
}

// TestControllerRBDefaultBudgetIsPaperK pins where the paper's K = 3
// lives: an rb controller left at SearchBudget 0 (the optimizer default)
// audits every decision across the drift range exactly as one configured
// with K = 3, while K = 2 and K = 4 audit differently, so the comparison
// would notice a changed default that TestControllerStrategyBudgets' upper
// bound lets through.
func TestControllerRBDefaultBudgetIsPaperK(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	audited := func(budget int) []obs.RunAudit {
		log := obs.NewAuditLog()
		opts := DefaultControllerOptions()
		opts.SearchBudget = budget
		opts.Audit = log
		ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []float64{0, 1e2, 1e4, 1e6, 3e7} {
			ctrl.RunInference(at)
		}
		return log.Runs()
	}
	def := audited(0)
	if err := auditEqual(def, audited(3)); err != nil {
		t.Fatalf("SearchBudget 0 and 3 audit differently: %v", err)
	}
	for _, k := range []int{2, 4} {
		if auditEqual(def, audited(k)) == nil {
			t.Fatalf("SearchBudget 0 audits like K = %d; the comparison cannot tell budgets apart", k)
		}
	}
}
