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
	"odin/internal/policy"
)

// Result is an experiment's typed outcome. Render prints the paper-style
// rows; cmd/odinsim -json marshals the same value, so the text and JSON
// artefacts cannot diverge.
type Result interface{ Render(w io.Writer) }

// Experiment is a runnable evaluation artefact. Run calls the driver once
// and returns its typed result; every Odin controller the driver builds
// starts from base, the controller configuration under evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(base core.ControllerOptions) (Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table I: PIM architecture specifications", func(core.ControllerOptions) (Result, error) { return Table1(core.DefaultSystem()), nil }},
		{"tab2", "Table II: parameters of ReRAM crossbar system", func(core.ControllerOptions) (Result, error) { return Table2(core.DefaultSystem()), nil }},
		{"fig3", "Fig. 3: layer-wise OU size and weight sparsity (ResNet18, CIFAR-10)", func(core.ControllerOptions) (Result, error) { return Fig3(core.DefaultSystem()) }},
		{"fig4", "Fig. 4: OU size distribution shift under conductance drift (ResNet18)", func(core.ControllerOptions) (Result, error) { return Fig4(core.DefaultSystem(), nil) }},
		{"fig5", "Fig. 5: offline vs online (RB/EX) layer-wise OU configurations (VGG11)", func(base core.ControllerOptions) (Result, error) { return Fig5(core.DefaultSystem(), base) }},
		{"fig6", "Fig. 6: energy and latency vs homogeneous OUs (VGG11, CIFAR-10)", func(base core.ControllerOptions) (Result, error) { return Fig6(core.DefaultSystem(), base) }},
		{"fig7", "Fig. 7: inference accuracy with and without reprogramming (VGG11)", func(base core.ControllerOptions) (Result, error) { return Fig7(core.DefaultSystem(), base) }},
		{"fig8", "Fig. 8: EDP across all DNN workloads (normalised to 16×16 inference EDP)", func(base core.ControllerOptions) (Result, error) { return Fig8(core.DefaultSystem(), base) }},
		{"fig9", "Fig. 9: EDP vs crossbar size (ResNet34, CIFAR-100)", func(base core.ControllerOptions) (Result, error) { return Fig9(core.DefaultSystem(), base, nil) }},
		{"overhead", "Sec. V-E: online learning and OU control overhead analysis", func(core.ControllerOptions) (Result, error) { return Overhead(core.DefaultSystem()) }},
		{"abl-k", "Ablation: resource-bounded search budget K", func(base core.ControllerOptions) (Result, error) {
			return AblSearchBudget(core.DefaultSystem(), base, nil)
		}},
		{"abl-buffer", "Ablation: training-buffer capacity", func(base core.ControllerOptions) (Result, error) { return AblBuffer(core.DefaultSystem(), base, nil) }},
		{"abl-eta", "Ablation: non-ideality threshold η", func(base core.ControllerOptions) (Result, error) { return AblEta(core.DefaultSystem(), base, nil) }},
		{"abl-rate", "Ablation: served inference rate (reprogramming crossover)", func(base core.ControllerOptions) (Result, error) { return AblRate(core.DefaultSystem(), base, nil) }},
		{"abl-cluster", "Ablation: pruning cluster width vs optimal OU width", func(core.ControllerOptions) (Result, error) { return AblCluster(core.DefaultSystem(), nil) }},
		{"abl-policy", "Ablation: policy trunk architecture", func(core.ControllerOptions) (Result, error) { return AblPolicy(core.DefaultSystem(), nil) }},
		{"noc-validate", "NoC model validation: analytic bound vs cut-through simulation", func(core.ControllerOptions) (Result, error) { return NoCValidate(core.DefaultSystem()) }},
		{"lifetime", "Extension: write endurance and projected device lifetime", func(base core.ControllerOptions) (Result, error) { return Lifetime(core.DefaultSystem(), base) }},
		{"proactive", "Extension: proactive reprogramming vs the paper's trigger", func(base core.ControllerOptions) (Result, error) { return Proactive(core.DefaultSystem(), base, nil) }},
		{"mobilenet", "Extension: MobileNetV2 (depthwise-separable, unseen architecture class)", func(base core.ControllerOptions) (Result, error) { return MobileNet(core.DefaultSystem(), base) }},
		{"empirical", "Device-level validation: class-flip rate on crossbar-executed CNN", func(core.ControllerOptions) (Result, error) { return Empirical(core.DefaultSystem(), nil, nil) }},
		{"confidence", "Extension: confidence-gated search routing (RB/EX hybrid)", func(base core.ControllerOptions) (Result, error) { return Confidence(core.DefaultSystem(), base, nil) }},
		{"rowskip", "Model validation: analytic vs measured row-segment skipping", func(core.ControllerOptions) (Result, error) { return RowSkip(core.DefaultSystem(), nil) }},
		{"indexes", "Sec. II motivation: index-table storage of offline OU compression vs Odin", func(core.ControllerOptions) (Result, error) { return Indexes(core.DefaultSystem(), nil) }},
		{"noise", "Device-level read-noise sensitivity (thermal noise axis)", func(core.ControllerOptions) (Result, error) { return Noise(core.DefaultSystem(), nil) }},
		{"opt-compare", "Extension: line-6 optimizer head-to-head (rb/ex/bo/pareto)", func(core.ControllerOptions) (Result, error) { return OptCompare(core.DefaultSystem()) }},
		{"fleet", "Extension: fleet-scale serving — drift-aware routing vs round-robin (1024 chips)", func(base core.ControllerOptions) (Result, error) { return Fleet(base) }},
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

// Every driver sets up once: it prepares each (system, model) workload
// and trains each (system, left-out family) offline policy a single time,
// then runs every baseline and controller of that pair on the shared
// workload, which only System.Prepare writes, each controller adapting its
// own Clone of the policy. Nothing is kept between driver calls.
//
// Every driver that builds Odin controllers takes the base
// core.ControllerOptions it evaluates: each controller starts from base
// and sets only the knob its row varies. The zero value is the paper's
// controller (NewController fills in its defaults), which is what RunAll
// hands out, plus RunOptions.DisableDecisionCache.

// offlinePolicy trains the offline policy for the workload named target
// with the paper's leave-one-out protocol: on every zoo workload outside
// target's family.
func offlinePolicy(sys core.System, target string) (*policy.Policy, error) {
	known := core.LeaveOut(dnn.AllWorkloads(), familyOf(target))
	pol, _, err := core.BootstrapPolicy(sys, known, core.DefaultBootstrapConfig())
	return pol, err
}

// odinSetup prepares the zoo model name on sys and trains its offline
// policy.
func odinSetup(sys core.System, name string) (*core.Workload, *policy.Policy, error) {
	m, err := dnn.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	wl, err := sys.Prepare(m)
	if err != nil {
		return nil, nil, err
	}
	pol, err := offlinePolicy(sys, name)
	return wl, pol, err
}

// odinHorizon runs an Odin controller with opts over cfg on wl, adapting a
// clone of the offline policy pol.
func odinHorizon(sys core.System, wl *core.Workload, pol *policy.Policy,
	opts core.ControllerOptions, cfg core.HorizonConfig) (core.HorizonSummary, error) {
	ctrl, err := core.NewController(sys, wl, pol.Clone(), opts)
	if err != nil {
		return core.HorizonSummary{}, err
	}
	return core.SimulateHorizon(ctrl, cfg), nil
}

// configNames names the four standard baselines, in
// core.StandardBaselineSizes order, then "Odin".
func configNames() []string {
	var names []string
	for _, size := range core.StandardBaselineSizes() {
		names = append(names, size.String())
	}
	return append(names, "Odin")
}

// baselineHorizons runs the four standard homogeneous baselines over cfg
// on wl, in core.StandardBaselineSizes order.
func baselineHorizons(sys core.System, wl *core.Workload, cfg core.HorizonConfig) ([]core.HorizonSummary, error) {
	sizes := core.StandardBaselineSizes()
	sums := make([]core.HorizonSummary, len(sizes))
	for i, size := range sizes {
		b, err := core.NewBaseline(sys, wl, size)
		if err != nil {
			return nil, err
		}
		sums[i] = core.SimulateHorizon(b, cfg)
	}
	return sums, nil
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
