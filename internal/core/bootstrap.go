package core

import (
	"fmt"
	"strings"

	"odin/internal/dnn"
	"odin/internal/mlp"
	"odin/internal/par"
	"odin/internal/policy"
	"odin/internal/search"
)

// BootstrapConfig controls offline policy construction (paper §V.A: "the
// offline policy is constructed using up to 500 training examples
// comprising of neural layer features and optimized OU configurations of
// known DNNs").
type BootstrapConfig struct {
	MaxExamples int // cap on training examples (paper: 500)
	Seed        uint64
}

// bootstrapAges are the device ages (s) sampled per model, spanning the
// drift sweep of Figs. 4–5.
var bootstrapAges = [...]float64{1, 1e2, 1e3, 1e4, 1e5, 1e6}

// bootstrapEpochs is the offline training epoch count.
const bootstrapEpochs = 300

// DefaultBootstrapConfig returns the paper's settings.
func DefaultBootstrapConfig() BootstrapConfig {
	return BootstrapConfig{
		MaxExamples: 500,
		Seed:        1,
	}
}

func (c BootstrapConfig) withDefaults() BootstrapConfig {
	if c.MaxExamples <= 0 {
		c.MaxExamples = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CollectExamples generates supervised examples for the known models by
// exhaustive search over the OU grid at each of bootstrapAges. The
// result is capped at cfg.MaxExamples by uniform striding so every model
// and age stays represented.
//
// The model×age grid is evaluated in parallel: workloads are prepared one
// shard per model (each model is a distinct instance, and pruning draws
// come from rng streams labelled by model/layer name, so draws are
// independent of scheduling), then every (model, age) cell collects its
// examples into its own shard. Concatenating the shards in cell order
// reproduces the sequential model-major append order exactly, so the
// example set — and every policy trained from it — is byte-identical at
// any worker count.
func CollectExamples(sys System, models []*dnn.Model, cfg BootstrapConfig) ([]policy.Example, error) {
	cfg = cfg.withDefaults()
	grid := sys.Grid()
	wls := make([]*Workload, len(models))
	if err := par.ForEach(0, len(models), func(i int) error {
		wl, err := sys.Prepare(models[i])
		if err != nil {
			return fmt.Errorf("core: preparing %s: %w", models[i].Name, err)
		}
		wls[i] = wl
		return nil
	}); err != nil {
		return nil, err
	}

	shards := make([][]policy.Example, len(models)*len(bootstrapAges))
	par.Each(0, len(shards), func(cell int) {
		wl := wls[cell/len(bootstrapAges)]
		age := bootstrapAges[cell%len(bootstrapAges)]
		amp := sys.Acc.Amplification(age)
		for j := 0; j < wl.Layers(); j++ {
			res := search.Exhaustive(grid, sys.objective(wl, j, sys.Acc.Sens.Weight(j, wl.Layers()), amp))
			if !res.Found {
				continue // no feasible size at this age — nothing to teach
			}
			shards[cell] = append(shards[cell], policy.Example{F: wl.FeaturesAt(j, age), Target: res.Best})
		}
	})
	var all []policy.Example
	for _, shard := range shards {
		all = append(all, shard...)
	}
	if len(all) > cfg.MaxExamples {
		stride := float64(len(all)) / float64(cfg.MaxExamples)
		capped := make([]policy.Example, 0, cfg.MaxExamples)
		for i := 0; i < cfg.MaxExamples; i++ {
			capped = append(capped, all[int(float64(i)*stride)])
		}
		all = capped
	}
	return all, nil
}

// BootstrapPolicy builds and trains the offline OU policy from (N−1) known
// DNNs (paper §V.A's leave-one-out protocol: to evaluate VGG models the
// offline policy is learnt from ResNets, DenseNets, ViT, …). It returns the
// trained policy and the number of examples used.
func BootstrapPolicy(sys System, models []*dnn.Model, cfg BootstrapConfig) (*policy.Policy, int, error) {
	cfg = cfg.withDefaults()
	examples, err := CollectExamples(sys, models, cfg)
	if err != nil {
		return nil, 0, err
	}
	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: cfg.Seed})
	if len(examples) == 0 {
		return pol, 0, nil
	}
	if _, err := pol.Train(examples, mlp.TrainOptions{
		Epochs: bootstrapEpochs,
		Seed:   cfg.Seed,
	}); err != nil {
		return nil, 0, err
	}
	return pol, len(examples), nil
}

// LeaveOut returns all zoo workloads except those whose name contains the
// excluded family substring — the paper's unseen-DNN protocol (e.g.
// LeaveOut("VGG") trains offline on everything but the VGG family).
func LeaveOut(models []*dnn.Model, family string) []*dnn.Model {
	var out []*dnn.Model
	for _, m := range models {
		if !containsFold(m.Name, family) {
			out = append(out, m)
		}
	}
	return out
}

func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}
