package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/mlp"
	"odin/internal/par"
	"odin/internal/policy"
)

// The sweeps below are embarrassingly parallel: every grid point runs its
// own controller, on a clone of the driver's one offline policy, or its own
// baseline, over a workload the driver prepared once and the rows only
// read, so each par.ForEach body writes only its rows[i] shard and the
// rendered tables are byte-identical at any worker count.

// The ablations quantify the design choices DESIGN.md §4 calls out. They are
// not paper artefacts; they answer "was this knob set sensibly" questions a
// reviewer (or a user porting the system) would ask.

// ablationHorizon is shorter than the artefact horizon: ablations compare
// configurations against each other, so a coarser sweep suffices.
func ablationHorizon() core.HorizonConfig {
	return core.HorizonConfig{End: 1e8, Epochs: 400}
}

// --- Search budget K ------------------------------------------------------

// AblSearchBudgetRow is one K setting's outcome.
type AblSearchBudgetRow struct {
	K               int
	EvalsPerLayer   float64 // mean candidate evaluations per layer decision
	EDPvsExhaustive float64 // TotalEDP relative to the EX-search controller
	Reprograms      int
}

// AblSearchBudgetResult sweeps the RB search budget K (paper: 3) and
// compares against the exhaustive controller.
type AblSearchBudgetResult struct {
	Model string
	Rows  []AblSearchBudgetRow
}

// AblSearchBudget runs the K sweep on VGG11.
func AblSearchBudget(sys core.System, base core.ControllerOptions, ks []int) (AblSearchBudgetResult, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 5, 8}
	}
	cfg := ablationHorizon()
	res := AblSearchBudgetResult{Model: "VGG11"}

	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	exOpts := base
	exOpts.Strategy = "ex"
	exSum, err := odinHorizon(sys, wl, pol, exOpts, cfg)
	if err != nil {
		return res, err
	}

	res.Rows = make([]AblSearchBudgetRow, len(ks))
	if err := par.ForEach(0, len(ks), func(i int) error {
		opts := base
		opts.SearchBudget = ks[i]
		sum, err := odinHorizon(sys, wl, pol, opts, cfg)
		if err != nil {
			return err
		}
		res.Rows[i] = AblSearchBudgetRow{
			K:               ks[i],
			EvalsPerLayer:   float64(sum.SearchEvaluations) / float64(cfg.Epochs*wl.Layers()),
			EDPvsExhaustive: sum.TotalEDP() / exSum.TotalEDP(),
			Reprograms:      sum.Reprograms,
		}
		return nil
	}); err != nil {
		return AblSearchBudgetResult{Model: res.Model}, err
	}
	return res, nil
}

// Render prints the K sweep.
func (r AblSearchBudgetResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: RB search budget K (%s); EDP relative to the exhaustive-search controller\n", r.Model)
	fmt.Fprintf(w, "%-4s %16s %16s %12s\n", "K", "evals/decision", "EDP vs EX", "reprograms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4d %16.1f %16.3f %12d\n", row.K, row.EvalsPerLayer, row.EDPvsExhaustive, row.Reprograms)
	}
}

// --- Training buffer size -------------------------------------------------

// AblBufferRow is one buffer-capacity outcome.
type AblBufferRow struct {
	Capacity      int
	PolicyUpdates int
	EDP           float64 // absolute per-inference total EDP
	StorageKB     float64
}

// AblBufferResult sweeps the training-buffer capacity (paper: 50 examples /
// 0.35 KB).
type AblBufferResult struct {
	Model string
	Rows  []AblBufferRow
}

// AblBuffer runs the buffer sweep on VGG16.
func AblBuffer(sys core.System, base core.ControllerOptions, capacities []int) (AblBufferResult, error) {
	if len(capacities) == 0 {
		capacities = []int{10, 25, 50, 100, 200}
	}
	cfg := ablationHorizon()
	res := AblBufferResult{Model: "VGG16", Rows: make([]AblBufferRow, len(capacities))}
	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	if err := par.ForEach(0, len(capacities), func(i int) error {
		capacity := capacities[i]
		opts := base
		opts.BufferSize = capacity
		ctrl, err := core.NewController(sys, wl, pol.Clone(), opts)
		if err != nil {
			return err
		}
		sum := core.SimulateHorizon(ctrl, cfg)
		o := sys.Arch.OverheadModel(0, capacity, core.UpdateEpochs)
		res.Rows[i] = AblBufferRow{
			Capacity:      capacity,
			PolicyUpdates: ctrl.PolicyUpdates(),
			EDP:           sum.TotalEDP(),
			StorageKB:     o.TrainingBufferKB,
		}
		return nil
	}); err != nil {
		return AblBufferResult{Model: res.Model}, err
	}
	return res, nil
}

// Render prints the buffer sweep.
func (r AblBufferResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: training-buffer capacity (%s)\n", r.Model)
	fmt.Fprintf(w, "%-10s %14s %14s %12s\n", "capacity", "policy updates", "EDP", "storage KB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10d %14d %14.3e %12.2f\n", row.Capacity, row.PolicyUpdates, row.EDP, row.StorageKB)
	}
}

// --- Non-ideality threshold η ----------------------------------------------

// AblEtaRow is one η outcome.
type AblEtaRow struct {
	Eta        float64
	EDP        float64
	MinAcc     float64
	Reprograms int
}

// AblEtaResult sweeps η (paper: 0.5 %): looser thresholds buy EDP at the
// cost of accuracy; tighter ones force earlier reprogramming.
type AblEtaResult struct {
	Model string
	Rows  []AblEtaRow
}

// AblEta runs the η sweep on ResNet18.
func AblEta(platform core.System, base core.ControllerOptions, etas []float64) (AblEtaResult, error) {
	if len(etas) == 0 {
		etas = []float64{0.0025, 0.005, 0.01, 0.02}
	}
	cfg := ablationHorizon()
	res := AblEtaResult{Model: "ResNet18", Rows: make([]AblEtaRow, len(etas))}
	if err := par.ForEach(0, len(etas), func(i int) error {
		sys := platform
		sys.Acc.Eta = etas[i]
		wl, pol, err := odinSetup(sys, res.Model)
		if err != nil {
			return err
		}
		sum, err := odinHorizon(sys, wl, pol, base, cfg)
		if err != nil {
			return err
		}
		res.Rows[i] = AblEtaRow{
			Eta:        etas[i],
			EDP:        sum.TotalEDP(),
			MinAcc:     sum.MinAccuracy,
			Reprograms: sum.Reprograms,
		}
		return nil
	}); err != nil {
		return AblEtaResult{Model: res.Model}, err
	}
	return res, nil
}

// Render prints the η sweep.
func (r AblEtaResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: non-ideality threshold η (%s)\n", r.Model)
	fmt.Fprintf(w, "%-8s %14s %12s %12s\n", "η", "EDP", "min acc", "reprograms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8.4f %14.3e %11.1f%% %12d\n", row.Eta, row.EDP, row.MinAcc*100, row.Reprograms)
	}
}

// --- Inference rate (reprogramming amortisation crossover) -----------------

// AblRateRow is one inference-rate outcome.
type AblRateRow struct {
	Rate        float64 // inferences per second
	EDPRatio    float64 // 16×16 TotalEDP / Odin TotalEDP
	EnergyRatio float64
}

// AblRateResult sweeps the served inference rate. At high rates inference
// energy amortises reprogramming and the homogeneous 16×16 closes the gap;
// at low (edge-sensing) rates reprogramming dominates and Odin's advantage
// peaks — the crossover behind the horizon model's default.
type AblRateResult struct {
	Model string
	Rows  []AblRateRow
}

// AblRate runs the rate sweep on VGG11.
func AblRate(sys core.System, base core.ControllerOptions, rates []float64) (AblRateResult, error) {
	if len(rates) == 0 {
		rates = []float64{1e-5, 1e-4, 2e-4, 1e-3, 1e-2}
	}
	res := AblRateResult{Model: "VGG11", Rows: make([]AblRateRow, len(rates))}
	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	if err := par.ForEach(0, len(rates), func(i int) error {
		cfg := ablationHorizon()
		cfg.InferenceRate = rates[i]

		odinSum, err := odinHorizon(sys, wl, pol, base, cfg)
		if err != nil {
			return err
		}
		b, err := core.NewBaseline(sys, wl, core.StandardBaselineSizes()[0])
		if err != nil {
			return err
		}
		baseSum := core.SimulateHorizon(b, cfg)
		res.Rows[i] = AblRateRow{
			Rate:        rates[i],
			EDPRatio:    baseSum.TotalEDP() / odinSum.TotalEDP(),
			EnergyRatio: baseSum.TotalEnergy() / odinSum.TotalEnergy(),
		}
		return nil
	}); err != nil {
		return AblRateResult{Model: res.Model}, err
	}
	return res, nil
}

// Render prints the rate sweep.
func (r AblRateResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: served inference rate (%s); 16×16 relative to Odin\n", r.Model)
	fmt.Fprintf(w, "%-12s %14s %14s\n", "rate (inf/s)", "EDP ratio", "energy ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12.0e %14.2f %14.2f\n", row.Rate, row.EDPRatio, row.EnergyRatio)
	}
}

// --- Pruning cluster width --------------------------------------------------

// AblClusterRow is one cluster-width outcome.
type AblClusterRow struct {
	Width        int
	MeanOUWidth  float64 // layer-mean optimal C at t0
	MeanEDP      float64 // mean per-layer optimal EDP at t0 (J·s)
	MeanOUHeight float64
}

// AblClusterResult sweeps the pruning alignment granularity: the OU width
// optimum tracks the cluster width, validating the row-skip model.
type AblClusterResult struct {
	Model string
	Rows  []AblClusterRow
}

// AblCluster runs the cluster-width sweep on VGG11 at t₀.
func AblCluster(base core.System, widths []int) (AblClusterResult, error) {
	if len(widths) == 0 {
		widths = []int{4, 8, 16, 32, 64}
	}
	res := AblClusterResult{Model: "VGG11", Rows: make([]AblClusterRow, len(widths))}
	if err := par.ForEach(0, len(widths), func(i int) error {
		width := widths[i]
		sys := base
		sys.Sparsity.ClusterWidth = width
		wl, err := sys.Prepare(dnn.NewVGG11())
		if err != nil {
			return err
		}
		sizes := sys.OptimalSizes(wl, sys.Device.T0)
		var sumC, sumR, sumEDP float64
		for j, s := range sizes {
			sumC += float64(s.C)
			sumR += float64(s.R)
			obj := core.LayerObjective(sys, wl, j, sys.Device.T0)
			sumEDP += obj.EDP(s)
		}
		n := float64(len(sizes))
		res.Rows[i] = AblClusterRow{
			Width:        width,
			MeanOUWidth:  sumC / n,
			MeanOUHeight: sumR / n,
			MeanEDP:      sumEDP / n,
		}
		return nil
	}); err != nil {
		return AblClusterResult{Model: res.Model}, err
	}
	return res, nil
}

// Render prints the cluster-width sweep.
func (r AblClusterResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: pruning cluster width (%s, t = t0)\n", r.Model)
	fmt.Fprintf(w, "%-8s %12s %12s %14s\n", "width", "mean opt C", "mean opt R", "mean EDP")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %12.1f %12.1f %14.3e\n", row.Width, row.MeanOUWidth, row.MeanOUHeight, row.MeanEDP)
	}
}

// --- Policy architecture ----------------------------------------------------

// AblPolicyRow is one policy-architecture outcome.
type AblPolicyRow struct {
	Name      string
	Params    int
	Agreement float64 // held-out agreement with the searched optimum
	PowerMW   float64 // §V.E prediction-power estimate
}

// AblPolicyResult sweeps the policy trunk: the paper's layer ("4 neurons,
// ReLU" feeding two 6-way heads) vs wider trunks.
type AblPolicyResult struct {
	HeldOutModel string
	Rows         []AblPolicyRow
}

// AblPolicy trains each architecture on the non-VGG families and evaluates
// agreement on VGG11's searched optima.
func AblPolicy(sys core.System, hiddens [][]int) (AblPolicyResult, error) {
	if hiddens == nil {
		hiddens = [][]int{{}, {4}, {8}, {16}, {32}}
	}
	res := AblPolicyResult{HeldOutModel: "VGG11"}
	known := core.LeaveOut(dnn.AllWorkloads(), "VGG")
	examples, err := core.CollectExamples(sys, known, core.DefaultBootstrapConfig())
	if err != nil {
		return res, err
	}
	heldOut, err := core.CollectExamples(sys, []*dnn.Model{dnn.NewVGG11()}, core.DefaultBootstrapConfig())
	if err != nil {
		return res, err
	}
	// Each trunk trains its own fresh policy; the shared example slices are
	// read-only (mlp.Train visits them through a private permutation).
	res.Rows = make([]AblPolicyRow, len(hiddens))
	if err := par.ForEach(0, len(hiddens), func(i int) error {
		hidden := hiddens[i]
		cfg := policy.Config{Grid: sys.Grid(), Seed: 1}
		name := "linear"
		if len(hidden) > 0 {
			cfg.Hidden = hidden
			name = fmt.Sprintf("trunk-%d", hidden[0])
		} else {
			cfg.Hidden = []int{} // non-nil empty: no trunk
		}
		pol := policy.New(cfg)
		if _, err := pol.Train(examples, mlp.TrainOptions{Epochs: 300, Seed: 1}); err != nil {
			return err
		}
		o := sys.Arch.OverheadModel(pol.NumParams(), 50, 100)
		res.Rows[i] = AblPolicyRow{
			Name:      name,
			Params:    pol.NumParams(),
			Agreement: pol.Agreement(heldOut),
			PowerMW:   o.PredictPower * 1e3,
		}
		return nil
	}); err != nil {
		return AblPolicyResult{HeldOutModel: res.HeldOutModel}, err
	}
	return res, nil
}

// Render prints the policy-architecture sweep.
func (r AblPolicyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: policy architecture (held out: %s)\n", r.HeldOutModel)
	fmt.Fprintf(w, "%-10s %10s %14s %12s\n", "trunk", "params", "agreement", "power (mW)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %10d %13.0f%% %12.2f\n", row.Name, row.Params, row.Agreement*100, row.PowerMW)
	}
}
