// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment has a typed driver returning the data
// behind the artefact and a Render method that prints the same rows/series
// the paper reports. The cmd/odinsim CLI and the repository's benchmark
// harness both run through this package, so numbers in EXPERIMENTS.md are
// reproducible from a single code path.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"odin/internal/core"
	"odin/internal/dnn"
)

// Experiment is a runnable evaluation artefact. Run prints the
// paper-style rows; Data returns the typed result for machine-readable
// output (cmd/odinsim -json).
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
	Data  func() (any, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table I: PIM architecture specifications", runTable1, func() (any, error) { return Table1(core.DefaultSystem()), nil }},
		{"tab2", "Table II: parameters of ReRAM crossbar system", runTable2, func() (any, error) { return Table2(core.DefaultSystem()), nil }},
		{"fig3", "Fig. 3: layer-wise OU size and weight sparsity (ResNet18, CIFAR-10)", runFig3, func() (any, error) { return Fig3(core.DefaultSystem()) }},
		{"fig4", "Fig. 4: OU size distribution shift under conductance drift (ResNet18)", runFig4, func() (any, error) { return Fig4(core.DefaultSystem(), nil) }},
		{"fig5", "Fig. 5: offline vs online (RB/EX) layer-wise OU configurations (VGG11)", runFig5, func() (any, error) { return Fig5(core.DefaultSystem()) }},
		{"fig6", "Fig. 6: energy and latency vs homogeneous OUs (VGG11, CIFAR-10)", runFig6, func() (any, error) { return Fig6(core.DefaultSystem()) }},
		{"fig7", "Fig. 7: inference accuracy with and without reprogramming (VGG11)", runFig7, func() (any, error) { return Fig7(core.DefaultSystem()) }},
		{"fig8", "Fig. 8: EDP across all DNN workloads (normalised to 16×16 inference EDP)", runFig8, func() (any, error) { return Fig8(core.DefaultSystem()) }},
		{"fig9", "Fig. 9: EDP vs crossbar size (ResNet34, CIFAR-100)", runFig9, func() (any, error) { return Fig9(core.DefaultSystem(), nil) }},
		{"overhead", "Sec. V-E: online learning and OU control overhead analysis", runOverhead, func() (any, error) { return Overhead(core.DefaultSystem()) }},
		{"abl-k", "Ablation: resource-bounded search budget K", runAblSearchBudget, func() (any, error) { return AblSearchBudget(core.DefaultSystem(), nil) }},
		{"abl-buffer", "Ablation: training-buffer capacity", runAblBuffer, func() (any, error) { return AblBuffer(core.DefaultSystem(), nil) }},
		{"abl-eta", "Ablation: non-ideality threshold η", runAblEta, func() (any, error) { return AblEta(core.DefaultSystem(), nil) }},
		{"abl-rate", "Ablation: served inference rate (reprogramming crossover)", runAblRate, func() (any, error) { return AblRate(core.DefaultSystem(), nil) }},
		{"abl-cluster", "Ablation: pruning cluster width vs optimal OU width", runAblCluster, func() (any, error) { return AblCluster(core.DefaultSystem(), nil) }},
		{"abl-policy", "Ablation: policy trunk architecture", runAblPolicy, func() (any, error) { return AblPolicy(core.DefaultSystem(), nil) }},
		{"noc-validate", "NoC model validation: analytic bound vs cut-through simulation", runNoCValidate, func() (any, error) { return NoCValidate(core.DefaultSystem()) }},
		{"lifetime", "Extension: write endurance and projected device lifetime", runLifetime, func() (any, error) { return Lifetime(core.DefaultSystem()) }},
		{"proactive", "Extension: proactive reprogramming vs the paper's trigger", runProactive, func() (any, error) { return Proactive(core.DefaultSystem(), nil) }},
		{"mobilenet", "Extension: MobileNetV2 (depthwise-separable, unseen architecture class)", runMobileNet, func() (any, error) { return MobileNet(core.DefaultSystem()) }},
		{"empirical", "Device-level validation: class-flip rate on crossbar-executed CNN", runEmpirical, func() (any, error) { return Empirical(core.DefaultSystem(), nil, nil) }},
		{"confidence", "Extension: confidence-gated search routing (RB/EX hybrid)", runConfidence, func() (any, error) { return Confidence(core.DefaultSystem(), nil) }},
		{"rowskip", "Model validation: analytic vs measured row-segment skipping", runRowSkip, func() (any, error) { return RowSkip(core.DefaultSystem(), nil) }},
		{"indexes", "Sec. II motivation: index-table storage of offline OU compression vs Odin", runIndexes, func() (any, error) { return Indexes(core.DefaultSystem(), nil) }},
		{"noise", "Device-level read-noise sensitivity (thermal noise axis)", runNoise, func() (any, error) { return Noise(core.DefaultSystem(), nil) }},
		{"opt-compare", "Extension: line-6 optimizer head-to-head (rb/ex/bo/pareto)", runOptCompare, func() (any, error) { return OptCompare(core.DefaultSystem()) }},
		{"fleet", "Extension: fleet-scale serving — drift-aware routing vs round-robin (1024 chips)", runFleet, func() (any, error) { return Fleet(FleetOptions{}) }},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// defaultHorizon is the evaluation horizon shared by the comparative
// experiments: t₀ → 10⁸ s, 1000 decision epochs, the default inference rate.
func defaultHorizon() core.HorizonConfig {
	return core.HorizonConfig{End: 1e8, Epochs: 1000}
}

// bootstrapFor builds the offline policy for an unseen workload using the
// paper's leave-one-out protocol: the policy is trained on every zoo family
// except the target's.
func bootstrapFor(sys core.System, target *dnn.Model) (*core.Controller, *core.Workload, error) {
	family := familyOf(target.Name)
	known := core.LeaveOut(dnn.AllWorkloads(), family)
	pol, _, err := core.BootstrapPolicy(sys, known, core.DefaultBootstrapConfig())
	if err != nil {
		return nil, nil, err
	}
	wl, err := sys.Prepare(target)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := core.NewController(sys, wl, pol, core.DefaultControllerOptions())
	if err != nil {
		return nil, nil, err
	}
	return ctrl, wl, nil
}

// familyOf maps a model name to its leave-one-out family substring.
func familyOf(name string) string {
	switch {
	case len(name) >= 3 && name[:3] == "VGG":
		return "VGG"
	case len(name) >= 6 && name[:6] == "ResNet":
		return "ResNet"
	case len(name) >= 5 && name[:5] == "Dense":
		return "DenseNet"
	case name == "ViT":
		return "ViT"
	case name == "GoogLeNet":
		return "GoogLeNet"
	default:
		return name
	}
}
