package core

import (
	"math"
	"testing"

	"odin/internal/dnn"
	"odin/internal/ou"
	"odin/internal/policy"
)

func TestDefaultSystemValid(t *testing.T) {
	t.Parallel()
	if err := DefaultSystem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithCrossbarSize(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem().WithCrossbarSize(64)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if sys.Grid().Levels() != 5 {
		t.Fatalf("64-crossbar grid levels = %d, want 5", sys.Grid().Levels())
	}
	// The original is unchanged (value semantics).
	if DefaultSystem().Arch.CrossbarSize != 128 {
		t.Fatal("WithCrossbarSize mutated the default")
	}
}

func TestPrepareWorkload(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	m := dnn.NewVGG11()
	wl, err := sys.Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Layers() != 11 {
		t.Fatalf("prepared %d layers, want 11", wl.Layers())
	}
	if m.MeanWeightSparsity() == 0 {
		t.Fatal("Prepare did not prune the model")
	}
	if wl.NoCEnergy <= 0 || wl.NoCLatency <= 0 {
		t.Fatalf("NoC costs not positive: %v / %v", wl.NoCEnergy, wl.NoCLatency)
	}
	if wl.CellsNonZero <= 0 {
		t.Fatal("no non-zero cells recorded")
	}
	var totalCells int
	for _, lm := range wl.Mappings {
		totalCells += lm.CellsTotal
	}
	if wl.CellsNonZero >= totalCells {
		t.Fatalf("non-zero cells %d should be below total %d for a pruned model",
			wl.CellsNonZero, totalCells)
	}
}

func TestPreparePreservesExistingPruning(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	m := dnn.NewVGG11()
	if _, err := sys.Prepare(m); err != nil {
		t.Fatal(err)
	}
	before := m.Layers[3].WeightSparsity
	if _, err := sys.Prepare(m); err != nil {
		t.Fatal(err)
	}
	if m.Layers[3].WeightSparsity != before {
		t.Fatal("second Prepare re-pruned the model")
	}
}

func TestPrepareRejectsInvalidModel(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	bad := &dnn.Model{Name: "bad", IdealAccuracy: 0.9}
	if _, err := sys.Prepare(bad); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestFeaturesAt(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	f := wl.FeaturesAt(2, 123)
	if f.LayerIndex != 2 || f.LayerCount != 11 || f.Time != 123 {
		t.Fatalf("features wrong: %+v", f)
	}
	if f.KernelSize != 3 {
		t.Fatalf("conv kernel size %d, want 3", f.KernelSize)
	}
	if f.Sparsity != wl.Model.Layers[2].WeightSparsity {
		t.Fatal("sparsity feature mismatch")
	}
}

func freshPolicy(sys System) *policy.Policy {
	return policy.New(policy.Config{Grid: sys.Grid(), Seed: 7})
}

func TestNewControllerValidation(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	if _, err := NewController(sys, nil, freshPolicy(sys), DefaultControllerOptions()); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := NewController(sys, wl, nil, DefaultControllerOptions()); err == nil {
		t.Fatal("nil policy accepted")
	}
	// Grid mismatch: policy built for a 64-crossbar system.
	small := DefaultSystem().WithCrossbarSize(64)
	if _, err := NewController(sys, wl, freshPolicy(small), DefaultControllerOptions()); err == nil {
		t.Fatal("grid-mismatched policy accepted")
	}
}

func TestControllerRunAtT0(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	ctrl, err := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := ctrl.RunInference(0)
	if len(rep.Sizes) != 11 {
		t.Fatalf("%d sizes, want 11", len(rep.Sizes))
	}
	g := sys.Grid()
	for j, s := range rep.Sizes {
		if _, _, ok := g.IndexOf(s); !ok {
			t.Fatalf("layer %d size %v off grid", j, s)
		}
	}
	if rep.Energy <= 0 || rep.Latency <= 0 {
		t.Fatalf("degenerate cost: %v / %v", rep.Energy, rep.Latency)
	}
	if rep.Reprogrammed {
		t.Fatal("reprogram at t0 makes no sense")
	}
	if rep.Accuracy < wl.Model.IdealAccuracy-0.01 {
		t.Fatalf("t0 accuracy %v far below ideal %v", rep.Accuracy, wl.Model.IdealAccuracy)
	}
	if rep.SearchEvaluations <= 0 {
		t.Fatal("no search evaluations recorded")
	}
}

func TestControllerReprogramsWhenNothingFeasible(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	ctrl, _ := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	rep := ctrl.RunInference(1e12) // far past every deadline
	if !rep.Reprogrammed {
		t.Fatal("controller did not reprogram at extreme age")
	}
	if rep.ReprogramEnergy <= 0 || rep.ReprogramLatency <= 0 {
		t.Fatal("reprogram cost missing")
	}
	if ctrl.Reprograms() != 1 {
		t.Fatalf("Reprograms = %d, want 1", ctrl.Reprograms())
	}
	// Next run starts from a fresh device: no immediate second reprogram.
	rep2 := ctrl.RunInference(1e12 + 1)
	if rep2.Reprogrammed {
		t.Fatal("device should be fresh right after reprogramming")
	}
	if rep2.Age > sys.Device.T0+2 {
		t.Fatalf("age after reprogram = %v, want ≈ t0", rep2.Age)
	}
}

func TestControllerShrinksOUsWithAge(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	ctrl, _ := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	fresh := ctrl.RunInference(0)
	aged := ctrl.RunInference(3e7) // deep into drift, before the 4×4 deadline
	sum := func(sizes []ou.Size) int {
		total := 0
		for _, s := range sizes {
			total += s.Product()
		}
		return total
	}
	if sum(aged.Sizes) >= sum(fresh.Sizes) {
		t.Fatalf("OU sizes did not shrink with drift: %v -> %v", sum(fresh.Sizes), sum(aged.Sizes))
	}
}

func TestControllerLearnsFromDisagreements(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	opts := DefaultControllerOptions()
	opts.BufferSize = 5 // tiny buffer so updates happen quickly
	ctrl, _ := NewController(sys, wl, freshPolicy(sys), opts)
	totalDisagreements := 0
	for k := 0; k < 30; k++ {
		rep := ctrl.RunInference(float64(k) * 100)
		totalDisagreements += rep.Disagreements
	}
	if totalDisagreements == 0 {
		t.Fatal("a fresh policy should disagree with the search somewhere")
	}
	if ctrl.PolicyUpdates() == 0 {
		t.Fatal("buffer never filled despite disagreements")
	}
}

func TestControllerExhaustiveMode(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	opts := DefaultControllerOptions()
	opts.Strategy = "ex"
	ctrl, _ := NewController(sys, wl, freshPolicy(sys), opts)
	rep := ctrl.RunInference(0)
	// EX evaluates the full 36-config grid per layer.
	if want := 36 * wl.Layers(); rep.SearchEvaluations != want {
		t.Fatalf("EX evaluations = %d, want %d", rep.SearchEvaluations, want)
	}
	rbCtrl, _ := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	rbRep := rbCtrl.RunInference(0)
	ratio := float64(rep.SearchEvaluations) / float64(rbRep.SearchEvaluations)
	if ratio < 1.5 {
		t.Fatalf("EX/RB overhead ratio %v too low (paper: ≈3×)", ratio)
	}
}

func TestBaselineValidation(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	if _, err := NewBaseline(sys, nil, ou.Size{R: 16, C: 16}); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := NewBaseline(sys, wl, ou.Size{R: 0, C: 16}); err == nil {
		t.Fatal("invalid size accepted")
	}
	if _, err := NewBaseline(sys, wl, ou.Size{R: 256, C: 16}); err == nil {
		t.Fatal("size exceeding crossbar accepted")
	}
	b, err := NewBaseline(sys, wl, ou.Size{R: 9, C: 8}) // off-grid prior-work config
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != (ou.Size{R: 9, C: 8}) {
		t.Fatal("size not stored")
	}
}

func TestBaselineUsesFixedSize(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	b, _ := NewBaseline(sys, wl, ou.Size{R: 16, C: 4})
	rep := b.RunInference(0)
	for _, s := range rep.Sizes {
		if s != (ou.Size{R: 16, C: 4}) {
			t.Fatalf("baseline varied its size: %v", s)
		}
	}
}

func TestBaselineReprogramsOnViolation(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	b, _ := NewBaseline(sys, wl, ou.Size{R: 16, C: 16})
	if rep := b.RunInference(0); rep.Reprogrammed {
		t.Fatal("16×16 should be fine at t0")
	}
	rep := b.RunInference(1e6) // past the 16×16 deadline
	if !rep.Reprogrammed {
		t.Fatal("16×16 should violate and reprogram by 1e6 s")
	}
	// Accuracy is restored because the device is fresh again.
	if rep.Accuracy < wl.Model.IdealAccuracy-0.02 {
		t.Fatalf("post-reprogram accuracy %v too low", rep.Accuracy)
	}
}

func TestBaselineWithoutReprogrammingDecays(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	b, _ := NewBaseline(sys, wl, ou.Size{R: 16, C: 16})
	b.DisableReprogram = true
	prev := math.Inf(1)
	for _, tt := range []float64{0, 1e6, 1e7, 1e8} {
		rep := b.RunInference(tt)
		if rep.Reprogrammed {
			t.Fatal("reprogramming disabled but happened")
		}
		if rep.Accuracy > prev {
			t.Fatalf("accuracy should decay without reprogramming: %v -> %v", prev, rep.Accuracy)
		}
		prev = rep.Accuracy
	}
	// Fig. 7 headline: a large drop (≈22 points) by the horizon.
	if drop := wl.Model.IdealAccuracy - prev; drop < 0.15 {
		t.Fatalf("16×16 without reprogramming dropped only %v, want ≥ 0.15", drop)
	}
}

func TestHorizonSummaryArithmetic(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	b, _ := NewBaseline(sys, wl, ou.Size{R: 8, C: 4})
	sum := SimulateHorizon(b, HorizonConfig{End: 1e6, Epochs: 50, InferenceRate: 1e-3, RecordEvery: 10})
	if sum.Epochs != 50 {
		t.Fatalf("epochs = %d", sum.Epochs)
	}
	if want := 1e6 * 1e-3; math.Abs(sum.Inferences-want) > 1e-6 {
		t.Fatalf("inferences = %v, want %v", sum.Inferences, want)
	}
	if got := sum.InferenceEDP(); math.Abs(got-sum.MeanInferenceEnergy()*sum.MeanInferenceLatency()) > got*1e-12 {
		t.Fatal("InferenceEDP inconsistent")
	}
	if got := sum.TotalEDP(); math.Abs(got-sum.TotalEnergy()*sum.TotalLatency()) > got*1e-12 {
		t.Fatal("TotalEDP inconsistent")
	}
	if len(sum.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(sum.Samples))
	}
	if sum.MinAccuracy > sum.MeanAccuracy || sum.MeanAccuracy > 1 {
		t.Fatalf("accuracy aggregates inconsistent: %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("String empty")
	}
}

// The headline integration test: over the horizon, Odin beats every
// homogeneous baseline on total EDP, and reprogramming counts order
// coarse ≫ fine ≥ Odin (paper §V.C).
func TestHeadlineOrderings(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	cfg := HorizonConfig{End: 1e8, Epochs: 400}

	known := LeaveOut(dnn.AllWorkloads(), "VGG")
	pol, n, err := BootstrapPolicy(sys, known, DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("bootstrap produced no examples")
	}
	ctrl, err := NewController(sys, wl, pol, DefaultControllerOptions())
	if err != nil {
		t.Fatal(err)
	}
	odin := SimulateHorizon(ctrl, cfg)

	reprograms := map[string]int{}
	edps := map[string]float64{}
	for _, size := range StandardBaselineSizes() {
		b, err := NewBaseline(sys, wl, size)
		if err != nil {
			t.Fatal(err)
		}
		sum := SimulateHorizon(b, cfg)
		reprograms[size.String()] = sum.Reprograms
		edps[size.String()] = sum.TotalEDP()
	}

	for name, edp := range edps {
		if odin.TotalEDP() >= edp {
			t.Errorf("Odin EDP %.3e not below %s EDP %.3e", odin.TotalEDP(), name, edp)
		}
	}
	if !(reprograms["16×16"] > reprograms["16×4"] &&
		reprograms["16×4"] > reprograms["9×8"] &&
		reprograms["9×8"] > reprograms["8×4"]) {
		t.Errorf("reprogram counts not ordered coarse→fine: %v", reprograms)
	}
	if odin.Reprograms > reprograms["8×4"]+1 {
		t.Errorf("Odin reprograms %d more than finest baseline %d", odin.Reprograms, reprograms["8×4"])
	}
	if odin.Reprograms > 4 {
		t.Errorf("Odin should reprogram only a handful of times, got %d", odin.Reprograms)
	}
	if odin.MeanAccuracy < wl.Model.IdealAccuracy-0.01 {
		t.Errorf("Odin mean accuracy %v sacrificed predictive quality", odin.MeanAccuracy)
	}
}

func TestCollectExamplesCapAndValidity(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	models := []*dnn.Model{dnn.NewResNet18(), dnn.NewViT()}
	cfg := DefaultBootstrapConfig()
	cfg.MaxExamples = 40
	examples, err := CollectExamples(sys, models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) != 40 {
		t.Fatalf("collected %d examples, want the 40 cap", len(examples))
	}
	g := sys.Grid()
	for i, e := range examples {
		if _, _, ok := g.IndexOf(e.Target); !ok {
			t.Fatalf("example %d target %v off grid", i, e.Target)
		}
		if err := e.F.Validate(); err != nil {
			t.Fatalf("example %d features invalid: %v", i, err)
		}
	}
}

func TestBootstrapImprovesAgreement(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	known := []*dnn.Model{dnn.NewResNet18(), dnn.NewGoogLeNet(), dnn.NewViT()}
	pol, n, err := BootstrapPolicy(sys, known, DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("only %d bootstrap examples", n)
	}
	// Held-out: examples from an unseen family.
	heldOut, err := CollectExamples(sys, []*dnn.Model{dnn.NewVGG11()}, DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshPolicy(sys)
	if pol.Agreement(heldOut) <= fresh.Agreement(heldOut) {
		t.Fatalf("bootstrap (%v) no better than fresh (%v) on unseen DNN",
			pol.Agreement(heldOut), fresh.Agreement(heldOut))
	}
}

func TestLeaveOut(t *testing.T) {
	t.Parallel()
	all := dnn.AllWorkloads()
	rest := LeaveOut(all, "VGG")
	if len(rest) != 6 {
		t.Fatalf("LeaveOut(VGG) kept %d models, want 6", len(rest))
	}
	for _, m := range rest {
		if m.Name == "VGG11" || m.Name == "VGG16" || m.Name == "VGG19" {
			t.Fatalf("VGG model %s survived LeaveOut", m.Name)
		}
	}
	if len(LeaveOut(all, "resnet")) != 6 {
		t.Fatal("LeaveOut should be case-insensitive")
	}
}

func TestProactiveReprogramOption(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	opts := DefaultControllerOptions()
	opts.ProactiveFactor = 1.01 // hair trigger
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	// At a heavily drifted age the constrained configuration is slower than
	// the fresh optimum, so the trigger must fire even though η is still
	// satisfiable at small sizes.
	rep := ctrl.RunInference(3e7)
	if !rep.Reprogrammed {
		t.Fatal("hair-trigger proactive reprogram did not fire")
	}
	// A moderate factor does not fire on a fresh device.
	opts2 := DefaultControllerOptions()
	opts2.ProactiveFactor = 1.5
	ctrl2, err := NewController(sys, wl, freshPolicy(sys), opts2)
	if err != nil {
		t.Fatal(err)
	}
	_ = ctrl2.RunInference(0) // must not panic or trigger at t0
	if ctrl2.Reprograms() != 0 {
		t.Fatal("proactive trigger fired on a fresh device")
	}
}

func TestConfidenceEXOption(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	// A fresh (untrained) policy is maximally unsure: near-uniform heads
	// give confidence ≈ (1/6)² ≪ 0.5, so every layer routes to EX.
	opts := DefaultControllerOptions()
	opts.ConfidenceThreshold = 0.5
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := ctrl.RunInference(0)
	if want := 36 * wl.Layers(); rep.SearchEvaluations != want {
		t.Fatalf("unsure policy should route all layers to EX: %d evals, want %d",
			rep.SearchEvaluations, want)
	}
	// With an impossible threshold nothing routes to EX.
	opts2 := DefaultControllerOptions()
	opts2.ConfidenceThreshold = 1e-9
	ctrl2, _ := NewController(sys, wl, freshPolicy(sys), opts2)
	rep2 := ctrl2.RunInference(0)
	if rep2.SearchEvaluations >= 36*wl.Layers() {
		t.Fatalf("zero threshold still routed to EX: %d evals", rep2.SearchEvaluations)
	}
}

// TestForcedReprogramAgeMatchesForcedTrigger pins the published deadline
// against the behavior it predicts: runs at ages below ForcedReprogramAge
// never force a reprogram, runs past it always do, and the value equals
// the minimum over layers of the accuracy model's deadline at the smallest
// grid size.
func TestForcedReprogramAgeMatchesForcedTrigger(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	opts := DefaultControllerOptions()
	opts.DisableDecisionCache = true // age bucketing would blur the boundary
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := ctrl.ForcedReprogramAge()
	if math.IsInf(deadline, 1) || deadline <= sys.Device.T0 {
		t.Fatalf("deadline %g, want finite and past T0 %g", deadline, sys.Device.T0)
	}
	smallest := sys.Grid().SizeAt(0, 0)
	want := math.Inf(1)
	for j := 0; j < wl.Layers(); j++ {
		if d := sys.Acc.ReprogramDeadline(j, wl.Layers(), smallest); d < want {
			want = d
		}
	}
	if deadline != want {
		t.Fatalf("ForcedReprogramAge %g, want min-layer smallest-size deadline %g", deadline, want)
	}

	if rep := ctrl.RunInference(0.5*deadline - sys.Device.T0); rep.Reprogrammed {
		t.Fatal("run at half the deadline forced a reprogram")
	}
	fresh, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep := fresh.RunInference(2*deadline - sys.Device.T0); !rep.Reprogrammed {
		t.Fatal("run past the deadline did not force a reprogram")
	}
}

// TestControllerMaintenanceReprogram pins the off-path write pass: it
// books the same cost as a forced pass, resets drift age, counts in
// Reprograms, and leaves the device fresh enough that the next run does
// not reprogram again.
func TestControllerMaintenanceReprogram(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	ctrl, err := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	if err != nil {
		t.Fatal(err)
	}
	const at = 1e9
	energy, latency := ctrl.Reprogram(at)
	if energy <= 0 || latency <= 0 {
		t.Fatalf("maintenance pass cost E=%g L=%g, want positive", energy, latency)
	}
	if got := ctrl.Reprograms(); got != 1 {
		t.Fatalf("Reprograms = %d, want 1", got)
	}
	if got, want := ctrl.Age(at), sys.Device.T0; got != want {
		t.Fatalf("age right after maintenance = %g, want fresh T0 %g", got, want)
	}
	if rep := ctrl.RunInference(at + 1); rep.Reprogrammed {
		t.Fatal("run right after maintenance forced another reprogram")
	}

	// Same write pass as the forced (lines 7-8) path, bit for bit.
	forced, err := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := forced.RunInference(1e12)
	if !rep.Reprogrammed {
		t.Fatal("no forced reprogram at extreme age")
	}
	if rep.ReprogramEnergy != energy || rep.ReprogramLatency != latency {
		t.Fatalf("maintenance cost (%g, %g) differs from forced cost (%g, %g)",
			energy, latency, rep.ReprogramEnergy, rep.ReprogramLatency)
	}
}

// TestControllerProgrammedAtOption pins the back-dating knob fleets use to
// stagger drift phases.
func TestControllerProgrammedAtOption(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, _ := sys.Prepare(dnn.NewVGG11())
	opts := DefaultControllerOptions()
	opts.ProgrammedAt = -10
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ctrl.Age(0), 10+sys.Device.T0; got != want {
		t.Fatalf("back-dated age at t=0 is %g, want %g", got, want)
	}
	def, err := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := def.Age(0), sys.Device.T0; got != want {
		t.Fatalf("default age at t=0 is %g, want fresh T0 %g", got, want)
	}
}
