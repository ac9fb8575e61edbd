// Package policy implements Odin's OU-configuration policy π(Φ, Θ): a tiny
// multi-output MLP classifier that maps neural-layer features and elapsed
// inference time to a layer-wise OU size (paper §III.A).
//
// The four input features Φ are the layer identifier (Φ₁), weight sparsity
// (Φ₂), kernel size (Φ₃) and the inference time elapsed since device
// programming (Φ₄). The network has two independent softmax heads, one for
// the OU-height level R and one for the width level C, each over the grid's
// discrete 2^L values (6 classes on a 128×128 crossbar).
//
// The package also provides the fixed-capacity training buffer of
// Algorithm 1 (lines 10–11): disagreements between the policy and the
// searched optimum accumulate until the buffer is full, then one supervised
// update runs and the buffer resets.
package policy

import (
	"fmt"
	"math"

	"odin/internal/mlp"
	"odin/internal/ou"
)

// Features is the input Φ of the OU policy for one layer decision.
type Features struct {
	LayerIndex int     // Φ₁: position of the layer in the network (0-based)
	LayerCount int     // network depth, used to normalise Φ₁
	Sparsity   float64 // Φ₂: weight sparsity in [0,1)
	KernelSize int     // Φ₃: convolution kernel edge (1 for FC layers)
	Time       float64 // Φ₄: seconds since device programming (≥ 0)
}

// maxLogTime normalises Φ₄: the paper's horizon is 10⁸ s, so log10(t) ≤ 8.
const maxLogTime = 8.0

// Vector encodes the features for the network: all components in ≈[0,1].
func (f Features) Vector() []float64 {
	v := f.encode()
	return v[:]
}

// encode is Vector into a fixed-size array, so PredictWith allocates
// nothing.
func (f Features) encode() [4]float64 {
	if err := f.Validate(); err != nil {
		panic(fmt.Sprintf("policy: %v", err))
	}
	pos := 0.0
	if f.LayerCount > 1 {
		pos = float64(f.LayerIndex) / float64(f.LayerCount-1)
	}
	logT := 0.0
	if f.Time > 1 {
		logT = math.Log10(f.Time) / maxLogTime
	}
	if logT > 1.25 {
		logT = 1.25
	}
	return [4]float64{
		pos,
		f.Sparsity,
		float64(f.KernelSize) / 7.0,
		logT,
	}
}

// Validate reports malformed feature values.
func (f Features) Validate() error {
	switch {
	case f.LayerCount < 1:
		return fmt.Errorf("policy: layer count %d must be positive", f.LayerCount)
	case f.LayerIndex < 0 || f.LayerIndex >= f.LayerCount:
		return fmt.Errorf("policy: layer index %d out of [0,%d)", f.LayerIndex, f.LayerCount)
	case f.Sparsity < 0 || f.Sparsity >= 1:
		return fmt.Errorf("policy: sparsity %v out of [0,1)", f.Sparsity)
	case f.KernelSize < 1:
		return fmt.Errorf("policy: kernel size %d must be positive", f.KernelSize)
	case f.Time < 0 || math.IsNaN(f.Time):
		return fmt.Errorf("policy: invalid time %v", f.Time)
	}
	return nil
}

// Config parameterises a Policy.
type Config struct {
	Grid   ou.Grid
	Hidden []int  // MLP trunk; nil defaults to one 16-neuron ReLU layer
	Seed   uint64 // weight initialisation seed
}

// Policy is the trainable OU-configuration policy.
type Policy struct {
	grid ou.Grid
	net  *mlp.Network
}

// New creates a policy for the given grid.
func New(cfg Config) *Policy {
	hidden := cfg.Hidden
	if hidden == nil {
		hidden = []int{16}
	}
	levels := cfg.Grid.Levels()
	return &Policy{
		grid: cfg.Grid,
		net: mlp.New(mlp.Config{
			InputDim: 4,
			Hidden:   hidden,
			Heads:    []int{levels, levels},
			Seed:     cfg.Seed,
		}),
	}
}

// Grid returns the discrete OU space the policy predicts over.
func (p *Policy) Grid() ou.Grid { return p.grid }

// NumParams returns the trainable parameter count (overhead analysis input).
func (p *Policy) NumParams() int { return p.net.NumParams() }

// Clone returns an independent copy (e.g. to snapshot the offline policy
// before online adaptation).
func (p *Policy) Clone() *Policy {
	return &Policy{grid: p.grid, net: p.net.Clone()}
}

// Workspace holds the buffers of one prediction, for callers that predict
// many times: PredictWith through one reused Workspace allocates nothing.
// The zero value is ready to use. A Workspace stays valid across Train, and
// resizes itself after UnmarshalJSON replaced the network. It is not safe
// for concurrent use.
type Workspace struct{ fwd mlp.Forward }

// NewWorkspace returns a Workspace sized for p's network.
func (p *Policy) NewWorkspace() *Workspace { return &Workspace{fwd: p.net.NewForward()} }

// Predict returns the policy's OU size decision (R_j × C_j) for Φ.
func (p *Policy) Predict(f Features) ou.Size {
	var ws Workspace
	return p.PredictWith(&ws, f)
}

// PredictWith is Predict computed in ws's buffers.
func (p *Policy) PredictWith(ws *Workspace, f Features) ou.Size {
	in := f.encode()
	cls := p.net.ClassifyInto(&ws.fwd, in[:])
	return p.grid.SizeAt(cls[0], cls[1])
}

// Probabilities returns the two heads' softmax distributions over the grid
// levels (R head first).
func (p *Policy) Probabilities(f Features) (r, c []float64) {
	probs := p.net.Predict(f.Vector())
	return probs[0], probs[1]
}

// Confidence returns the policy's confidence in its decision for Φ: the
// product of the two heads' maximum class probabilities, in (0, 1]. Low
// values mark inputs the policy has not learnt yet — useful for routing
// hard decisions to a stronger (exhaustive) search.
func (p *Policy) Confidence(f Features) float64 {
	r, c := p.Probabilities(f)
	return maxOf(r) * maxOf(c)
}

func maxOf(v []float64) float64 {
	best := v[0]
	for _, x := range v[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// Example is one supervised pair: features and the searched best size.
type Example struct {
	F      Features
	Target ou.Size
}

// toMLP converts an example, validating that the target lies on the grid.
func (p *Policy) toMLP(e Example) (mlp.Example, error) {
	r, c, ok := p.grid.IndexOf(e.Target)
	if !ok {
		return mlp.Example{}, fmt.Errorf("policy: target %v off the OU grid", e.Target)
	}
	return mlp.Example{Input: e.F.Vector(), Targets: []int{r, c}}, nil
}

// Train runs supervised learning on the examples (Algorithm 1, line 11).
// The paper trains for 100 epochs per update; opts.Epochs = 0 uses that
// default.
func (p *Policy) Train(examples []Example, opts mlp.TrainOptions) (mlp.TrainStats, error) {
	converted := make([]mlp.Example, 0, len(examples))
	for _, e := range examples {
		me, err := p.toMLP(e)
		if err != nil {
			return mlp.TrainStats{}, err
		}
		converted = append(converted, me)
	}
	return p.net.Train(converted, opts), nil
}

// Agreement returns the fraction of examples where the policy's prediction
// matches the target exactly — the adaptation progress metric of Fig. 5.
func (p *Policy) Agreement(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	hits := 0
	for _, e := range examples {
		if p.Predict(e.F) == e.Target {
			hits++
		}
	}
	return float64(hits) / float64(len(examples))
}

// Buffer is the fixed-capacity training-example store of Algorithm 1. The
// paper uses 50 examples (0.35 KB).
type Buffer struct {
	capacity int
	examples []Example
}

// NewBuffer creates a buffer holding up to capacity examples.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		panic(fmt.Sprintf("policy: buffer capacity %d must be positive", capacity))
	}
	return &Buffer{capacity: capacity}
}

// Add stores an example and reports whether the buffer is now full.
// Examples beyond capacity are dropped (the buffer should be drained when
// full).
func (b *Buffer) Add(e Example) bool {
	if len(b.examples) < b.capacity {
		b.examples = append(b.examples, e)
	}
	return b.Full()
}

// Full reports whether the buffer reached capacity.
func (b *Buffer) Full() bool { return len(b.examples) >= b.capacity }

// Len returns the number of stored examples.
func (b *Buffer) Len() int { return len(b.examples) }

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return b.capacity }

// Drain returns the stored examples and resets the buffer (Algorithm 1,
// line 11: "If buffer is full; reset the buffer").
func (b *Buffer) Drain() []Example {
	out := b.examples
	b.examples = nil
	return out
}
