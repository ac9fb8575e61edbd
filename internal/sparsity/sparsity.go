// Package sparsity simulates the crossbar-aware weight/activation pruning
// the paper applies to its workloads (§V.A, citing Ogbogu et al. ISLPED'23)
// and converts the resulting layer sparsity into the row-segment skip
// statistics the OU cycle model consumes.
//
// The paper's pipeline prunes pre-trained models so that zeros cluster into
// crossbar-aligned row segments (that is what makes OU-level row skipping
// effective). We reproduce the *statistics* of that process: each layer
// gets a deterministic weight/activation sparsity drawn from a
// size-and-role-aware schedule, and a Profile describing how those zeros
// cluster.
package sparsity

import (
	"fmt"
	"math"

	"odin/internal/dnn"
	"odin/internal/rng"
)

// Profile describes the zero structure of one pruned layer. It implements
// ou.SparsityProfile.
type Profile struct {
	// Weight is the fraction of zero weights in the layer, in [0, 1).
	Weight float64
	// Cluster is the fraction of the zero weights arranged in
	// crossbar-aligned zero blocks (the structured component produced by
	// crossbar-aware pruning); the remainder is unstructured. In [0, 1].
	Cluster float64
	// ClusterWidth is the granularity (in cells) the pruning pass aligned
	// its zero blocks to. OU widths up to ClusterWidth get the full
	// structured skip rate; wider segments span several blocks and skip
	// only when all of them are zero. Non-positive values default to 16
	// (the granularity of the OU-level compression schemes the paper
	// builds on).
	ClusterWidth int
}

// DefaultClusterWidth is the pruning alignment granularity assumed when a
// profile does not specify one.
const DefaultClusterWidth = 16

// SegmentZeroFraction returns the probability that a row segment of the
// given width is entirely zero and can be skipped by the OU scheduler.
// The structured component contributes its full rate up to ClusterWidth
// and decays geometrically beyond it (a wider segment covers
// width/ClusterWidth independent blocks); the unstructured remainder only
// zeroes a whole segment when all `width` cells happen to be zero.
func (p Profile) SegmentZeroFraction(width int) float64 {
	if width < 1 {
		panic(fmt.Sprintf("sparsity: invalid segment width %d", width))
	}
	s := p.Weight
	if s <= 0 {
		return 0
	}
	w0 := p.ClusterWidth
	if w0 <= 0 {
		w0 = DefaultClusterWidth
	}
	// Blocks covered beyond the first: 0 while width ≤ w0.
	extra := math.Max(0, float64(width-w0)/float64(w0))
	structured := p.Cluster * s * math.Pow(s, extra)
	// Residual unstructured zero rate among the non-clustered weights.
	residual := (1 - p.Cluster) * s
	random := math.Pow(residual, float64(width))
	f := structured + random
	if f >= 1 {
		f = 1 - 1e-9 // a fully skippable layer still needs control cycles
	}
	return f
}

// Config parameterises the pruning simulator.
type Config struct {
	// Seed decorrelates pruning draws between experiments; the layer name
	// and model name are always mixed in, so the same (seed, model) pair is
	// reproducible.
	Seed uint64
	// BaseSparsity is the schedule's centre point (fraction of zeros).
	BaseSparsity float64
	// SizeSlope adds sparsity per decade of weight count above 10^5
	// (bigger layers are more over-parameterised and prune harder).
	SizeSlope float64
	// Cluster is the structured fraction passed through to Profile.
	Cluster float64
	// ClusterWidth is the pruning alignment granularity passed through to
	// Profile; non-positive defaults to DefaultClusterWidth.
	ClusterWidth int
	// Jitter is the half-width of the uniform per-layer perturbation.
	Jitter float64
}

// DefaultConfig matches the paper's "highly sparse pre-trained DNN models"
// obtained via crossbar-aware pruning.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		BaseSparsity: 0.60,
		SizeSlope:    0.08,
		Cluster:      0.85,
		ClusterWidth: DefaultClusterWidth,
		Jitter:       0.10,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.BaseSparsity < 0 || c.BaseSparsity >= 1:
		return fmt.Errorf("sparsity: base sparsity %v out of [0,1)", c.BaseSparsity)
	case c.Cluster < 0 || c.Cluster > 1:
		return fmt.Errorf("sparsity: cluster fraction %v out of [0,1]", c.Cluster)
	case c.Jitter < 0 || c.Jitter > 0.5:
		return fmt.Errorf("sparsity: jitter %v out of [0,0.5]", c.Jitter)
	case c.SizeSlope < 0:
		return fmt.Errorf("sparsity: negative size slope %v", c.SizeSlope)
	}
	return nil
}

// Prune fills WeightSparsity and ActSparsity for every layer of the model,
// deterministically in (cfg.Seed, model name, layer name). It returns an
// error if the config is invalid; the model is modified in place.
func Prune(m *dnn.Model, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for i := range m.Layers {
		l := &m.Layers[i]
		src := rng.New(cfg.Seed).Fork(m.Name + "/" + l.Name)
		l.WeightSparsity = layerSparsity(l, i, len(m.Layers), cfg, src)
		l.ActSparsity = activationSparsity(l, cfg, src)
	}
	return nil
}

// layerSparsity implements the schedule: centre + size term + role
// adjustments + jitter, clamped to [0.05, 0.95].
func layerSparsity(l *dnn.Layer, idx, total int, cfg Config, src *rng.Source) float64 {
	s := cfg.BaseSparsity
	// Bigger layers prune harder (magnitude pruning concentrates survivors).
	s += cfg.SizeSlope * math.Log10(math.Max(float64(l.Weights()), 1)/1e5)
	// Role adjustments mirroring standard sensitivity-aware schedules:
	switch {
	case idx == 0:
		s -= 0.25 // stem: small and accuracy-critical, prune gently
	case idx == total-1:
		s -= 0.15 // classifier head
	case l.Skip:
		s -= 0.10 // 1×1 projections carry no redundancy from kernel space
	case l.Type == dnn.Attention:
		s -= 0.05 // QKV prunes slightly worse than MLP blocks
	}
	if l.KernelH == 1 && l.Type == dnn.Conv && !l.Skip {
		s -= 0.05 // pointwise convs (bottlenecks, transitions)
	}
	s += (2*src.Float64() - 1) * cfg.Jitter
	return clamp(s, 0.05, 0.95)
}

// activationSparsity models post-ReLU zero rates (≈50 % for conv nets) and
// GELU-style transformer activations (lower).
func activationSparsity(l *dnn.Layer, cfg Config, src *rng.Source) float64 {
	base := 0.50
	if l.Type == dnn.Attention || (l.Type == dnn.FC && l.InH > 1) {
		base = 0.30 // transformer token streams are denser
	}
	return clamp(base+(2*src.Float64()-1)*cfg.Jitter/2, 0.05, 0.95)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ProfileFor returns the pruned layer's zero-structure profile under the
// given config. Call Prune first; an unpruned layer yields a dense profile.
func ProfileFor(l dnn.Layer, cfg Config) Profile {
	return Profile{Weight: l.WeightSparsity, Cluster: cfg.Cluster, ClusterWidth: cfg.ClusterWidth}
}
