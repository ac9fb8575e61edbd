// Package mlp implements a small, dependency-free multi-layer perceptron
// with an arbitrary number of independent softmax output heads.
//
// The Odin OU-configuration policy (paper §III.A) is "a multi-output MLP
// classifier ... one input layer (4 neurons) with the ReLU activation and two
// separate output layers (6 neurons each) with the softmax activation": a
// shared ReLU trunk feeding two 6-way heads that independently classify the
// OU height level (R) and width level (C). Go has no ML ecosystem to lean
// on, so the full stack — forward pass, backprop, cross-entropy over multiple
// heads, SGD with momentum, and Adam — is implemented here from scratch and
// verified against numerical gradients in the tests.
package mlp

import (
	"fmt"
	"math"

	"odin/internal/mat"
	"odin/internal/rng"
)

// Config describes a network: InputDim inputs, a ReLU hidden trunk with the
// given widths, and one linear+softmax head per entry of Heads.
type Config struct {
	InputDim int
	Hidden   []int // hidden layer widths; may be empty (linear heads on input)
	Heads    []int // output class counts, one per head; must be non-empty
	Seed     uint64
}

func (c Config) validate() error {
	if c.InputDim <= 0 {
		return fmt.Errorf("mlp: InputDim must be positive, got %d", c.InputDim)
	}
	if len(c.Heads) == 0 {
		return fmt.Errorf("mlp: at least one output head required")
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("mlp: hidden layer %d has non-positive width %d", i, h)
		}
	}
	for i, h := range c.Heads {
		if h <= 0 {
			return fmt.Errorf("mlp: head %d has non-positive class count %d", i, h)
		}
	}
	return nil
}

// linear is a fully connected layer y = W·x + b.
type linear struct {
	W *mat.Dense
	B []float64
}

func newLinear(in, out int, src *rng.Source) *linear {
	l := &linear{W: mat.NewDense(out, in), B: make([]float64, out)}
	// He initialisation, appropriate for ReLU trunks.
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.W.Data {
		l.W.Data[i] = src.NormFloat64() * scale
	}
	return l
}

func (l *linear) clone() *linear {
	c := &linear{W: l.W.Clone(), B: make([]float64, len(l.B))}
	copy(c.B, l.B)
	return c
}

func (l *linear) zeroLike() *linear {
	return &linear{W: mat.NewDense(l.W.Rows, l.W.Cols), B: make([]float64, len(l.B))}
}

// Network is a trained or trainable MLP. Create one with New; the zero value
// is not usable.
type Network struct {
	cfg   Config
	trunk []*linear
	heads []*linear
}

// New builds a network with He-initialised weights drawn from the config
// seed. It panics if the config is invalid (a construction-time programming
// error, not a runtime condition).
func New(cfg Config) *Network {
	if err := cfg.validate(); err != nil {
		panic(fmt.Sprintf("mlp: %v", err))
	}
	src := rng.New(cfg.Seed ^ 0x6f64696e6d6c70) // decorrelate from other subsystems
	n := &Network{cfg: cfg}
	in := cfg.InputDim
	for _, h := range cfg.Hidden {
		n.trunk = append(n.trunk, newLinear(in, h, src))
		in = h
	}
	for _, h := range cfg.Heads {
		n.heads = append(n.heads, newLinear(in, h, src))
	}
	return n
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Clone returns an independent deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{cfg: n.cfg}
	for _, l := range n.trunk {
		c.trunk = append(c.trunk, l.clone())
	}
	for _, l := range n.heads {
		c.heads = append(c.heads, l.clone())
	}
	return c
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers() {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}

// layers returns the trunk then the heads: the parameter order of
// Parameters and Gradients, and the shape of gradients and optimizer state.
func (n *Network) layers() []*linear {
	return append(append(make([]*linear, 0, len(n.trunk)+len(n.heads)), n.trunk...), n.heads...)
}

// workspace holds every buffer one forward and backward pass writes. A
// Predict, Classify, Loss, Train or Gradients call sizes one up front, so
// the per-example work allocates nothing. It is never stored on the
// Network: concurrent read-only calls on a shared network stay race-free.
// Forward keeps one across calls.
type workspace struct {
	acts   [][]float64 // acts[0] is the input; acts[i+1] is trunk layer i's ReLU output
	logits [][]float64 // per head: raw logits after forward, softmax after probabilities
	grad   [][]float64 // grad[i] is ∂loss/∂acts[i] (training only)
	back   []float64   // one head's Wᵀ·dz before it joins the trunk output's grad (training only)
}

func (n *Network) newWorkspace(train bool) workspace {
	vecs := make([][]float64, len(n.trunk)+1+len(n.heads)) // one allocation for both header lists
	ws := workspace{acts: vecs[:len(n.trunk)+1], logits: vecs[len(n.trunk)+1:]}
	for i, l := range n.trunk {
		ws.acts[i+1] = make([]float64, len(l.B))
	}
	for k, l := range n.heads {
		ws.logits[k] = make([]float64, len(l.B))
	}
	if train {
		ws.grad = make([][]float64, len(ws.acts))
		ws.grad[0] = make([]float64, n.cfg.InputDim)
		for i, l := range n.trunk {
			ws.grad[i+1] = make([]float64, len(l.B))
		}
		ws.back = make([]float64, len(ws.grad[len(n.trunk)]))
	}
	return ws
}

// forward runs the network on input, leaving every post-activation in
// ws.acts and the raw logits per head in ws.logits.
func (n *Network) forward(input []float64, ws *workspace) {
	if len(input) != n.cfg.InputDim {
		panic(fmt.Sprintf("mlp: input length %d, want %d", len(input), n.cfg.InputDim))
	}
	ws.acts[0] = input
	h := input
	for i, l := range n.trunk {
		z := l.W.MulVec(h, ws.acts[i+1])
		for j := range z {
			z[j] += l.B[j]
			if z[j] < 0 { // ReLU
				z[j] = 0
			}
		}
		h = z
	}
	for k, l := range n.heads {
		z := l.W.MulVec(h, ws.logits[k])
		for j := range z {
			z[j] += l.B[j]
		}
	}
}

// probabilities runs forward and replaces each head's logits with their
// softmax in place, returning ws.logits.
func (n *Network) probabilities(input []float64, ws *workspace) [][]float64 {
	n.forward(input, ws)
	for _, z := range ws.logits {
		mat.Softmax(z, z)
	}
	return ws.logits
}

// Predict returns per-head softmax probability vectors for the input.
func (n *Network) Predict(input []float64) [][]float64 {
	ws := n.newWorkspace(false)
	return n.probabilities(input, &ws)
}

// Classify returns the arg-max class per head.
func (n *Network) Classify(input []float64) []int {
	f := n.NewForward()
	return n.ClassifyInto(&f, input)
}

// Forward is a forward-only workspace for callers that classify many
// inputs: ClassifyInto through one reused Forward allocates nothing. The
// zero value is ready to use. A Forward remembers the network it was sized
// for by that network's first head layer, which New, Clone and
// UnmarshalJSON each allocate afresh, and resizes itself when handed
// another network, at the cost of one pointer compare per call. Train
// updates weights in place, so a Forward stays valid across it. A Forward
// is not safe for concurrent use.
type Forward struct {
	sized *linear
	ws    workspace
	in    []float64
	class []int
}

// NewForward returns a Forward sized for n.
func (n *Network) NewForward() Forward {
	return Forward{sized: n.heads[0], ws: n.newWorkspace(false),
		in: make([]float64, n.cfg.InputDim), class: make([]int, len(n.heads))}
}

// ClassifyInto returns the arg-max class per head for input, computed in
// f's buffers. The result is f's own slice, overwritten by the next call.
// It copies input instead of keeping it, so input may live on the
// caller's stack.
func (n *Network) ClassifyInto(f *Forward, input []float64) []int {
	if f.sized != n.heads[0] {
		*f = n.NewForward()
	}
	if len(input) != len(f.in) {
		panic(fmt.Sprintf("mlp: input length %d, want %d", len(input), len(f.in)))
	}
	copy(f.in, input)
	n.forward(f.in, &f.ws)
	for k, z := range f.ws.logits {
		f.class[k] = mat.ArgMax(z)
	}
	return f.class
}

// Example is one supervised training pair: an input vector and one target
// class index per head.
type Example struct {
	Input   []float64
	Targets []int
}

func (n *Network) checkExample(e Example) error {
	if len(e.Input) != n.cfg.InputDim {
		return fmt.Errorf("mlp: example input length %d, want %d", len(e.Input), n.cfg.InputDim)
	}
	if len(e.Targets) != len(n.cfg.Heads) {
		return fmt.Errorf("mlp: example has %d targets, want %d", len(e.Targets), len(n.cfg.Heads))
	}
	for k, tgt := range e.Targets {
		if tgt < 0 || tgt >= n.cfg.Heads[k] {
			return fmt.Errorf("mlp: head %d target %d out of range [0,%d)", k, tgt, n.cfg.Heads[k])
		}
	}
	return nil
}

// mustCheck panics on the first malformed example: Train, Loss and
// Gradients share one validation and one message.
func (n *Network) mustCheck(examples []Example) {
	for _, e := range examples {
		if err := n.checkExample(e); err != nil {
			panic(fmt.Sprintf("mlp: %v", err))
		}
	}
}

// Loss returns the mean (over examples) summed (over heads) cross-entropy.
func (n *Network) Loss(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	n.mustCheck(examples)
	ws := n.newWorkspace(false)
	var total float64
	for _, e := range examples {
		for k, p := range n.probabilities(e.Input, &ws) {
			total += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		}
	}
	return total / float64(len(examples))
}

// zeroLike returns zeroed layers shaped like ls: gradients and optimizer
// state in parameter order.
func zeroLike(ls []*linear) []*linear {
	out := make([]*linear, len(ls))
	for i, l := range ls {
		out[i] = l.zeroLike()
	}
	return out
}

func zero(ls []*linear) {
	for _, l := range ls {
		l.W.Zero()
		clear(l.B)
	}
}

// accumulate adds ∂loss/∂θ for a single example into g (laid out like
// layers) and returns that example's loss.
func (n *Network) accumulate(e Example, g []*linear, ws *workspace) float64 {
	probs := n.probabilities(e.Input, ws)
	top := ws.acts[len(n.trunk)] // trunk output (or raw input when no hidden layers)

	var loss float64
	// dTop accumulates the gradient flowing back into the trunk output from
	// every head.
	dTop := ws.grad[len(n.trunk)]
	clear(dTop)
	for k, p := range probs {
		loss += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		// dLogits = p - onehot(target)
		dz := p // reuse; p is this head's workspace buffer
		dz[e.Targets[k]] -= 1
		gh := g[len(n.trunk)+k]
		gh.W.AddOuterScaled(1, dz, top)
		for j := range dz {
			gh.B[j] += dz[j]
		}
		back := n.heads[k].W.MulVecT(dz, ws.back)
		for j := range dTop {
			dTop[j] += back[j]
		}
	}

	// Backprop through the ReLU trunk.
	d := dTop
	for i := len(n.trunk) - 1; i >= 0; i-- {
		out := ws.acts[i+1]
		for j := range d {
			if out[j] <= 0 { // ReLU derivative
				d[j] = 0
			}
		}
		g[i].W.AddOuterScaled(1, d, ws.acts[i])
		for j := range d {
			g[i].B[j] += d[j]
		}
		if i > 0 {
			d = n.trunk[i].W.MulVecT(d, ws.grad[i])
		}
	}
	return loss
}

// Optimizer selects the parameter-update rule used by Train.
type Optimizer int

const (
	// SGD is stochastic gradient descent with momentum.
	SGD Optimizer = iota
	// Adam is the Adam rule (Kingma & Ba) with the usual defaults.
	Adam
)

// TrainOptions configures Train. Zero values get sensible defaults.
type TrainOptions struct {
	Epochs       int       // default 100 (the paper trains the policy 100 epochs per update)
	LearningRate float64   // default 0.05 for SGD, 0.01 for Adam
	Momentum     float64   // SGD momentum, default 0.9
	BatchSize    int       // default: full batch
	L2           float64   // weight decay coefficient, default 0
	Optimizer    Optimizer // default SGD
	Seed         uint64    // shuffling seed, default 1
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 100
	}
	if o.LearningRate == 0 {
		if o.Optimizer == Adam {
			o.LearningRate = 0.01
		} else {
			o.LearningRate = 0.05
		}
	}
	if o.Momentum == 0 && o.Optimizer == SGD {
		o.Momentum = 0.9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TrainStats summarises a Train call.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
	FirstLoss float64
}

// Train fits the network to the examples and reports first/final epoch mean
// loss. Training is deterministic given the options' seed. Its buffers are
// sized once per call, so epochs and examples allocate nothing.
func (n *Network) Train(examples []Example, opts TrainOptions) TrainStats {
	if len(examples) == 0 {
		return TrainStats{}
	}
	n.mustCheck(examples)
	opts = opts.withDefaults()
	batch := opts.BatchSize
	if batch <= 0 || batch > len(examples) {
		batch = len(examples)
	}
	params := n.layers()
	g := zeroLike(params)
	var vel, m1, m2 []*linear
	switch opts.Optimizer {
	case SGD:
		vel = zeroLike(params)
	case Adam:
		m1, m2 = zeroLike(params), zeroLike(params)
	}
	ws := n.newWorkspace(true)
	order := make([]int, len(examples))
	src := rng.New(opts.Seed)
	stats := TrainStats{Epochs: opts.Epochs}
	adamStep := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		src.PermInto(order)
		var epochLoss float64
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			zero(g)
			for _, idx := range order[start:end] {
				epochLoss += n.accumulate(examples[idx], g, &ws)
			}
			scale := 1.0 / float64(end-start)
			switch opts.Optimizer {
			case SGD:
				applySGD(params, g, vel, scale, opts)
			case Adam:
				adamStep++
				applyAdam(params, g, m1, m2, scale, adamStep, opts)
			}
		}
		meanLoss := epochLoss / float64(len(examples))
		if epoch == 0 {
			stats.FirstLoss = meanLoss
		}
		stats.FinalLoss = meanLoss
	}
	return stats
}

func applySGD(params, g, vel []*linear, scale float64, opts TrainOptions) {
	for i, param := range params {
		grad, v := g[i], vel[i]
		for k := range param.W.Data {
			dw := grad.W.Data[k]*scale + opts.L2*param.W.Data[k]
			v.W.Data[k] = opts.Momentum*v.W.Data[k] - opts.LearningRate*dw
			param.W.Data[k] += v.W.Data[k]
		}
		for k := range param.B {
			db := grad.B[k] * scale
			v.B[k] = opts.Momentum*v.B[k] - opts.LearningRate*db
			param.B[k] += v.B[k]
		}
	}
}

func applyAdam(params, g, m1, m2 []*linear, scale float64, step int, opts TrainOptions) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i, param := range params {
		grad, a, b := g[i], m1[i], m2[i]
		for k := range param.W.Data {
			dw := grad.W.Data[k]*scale + opts.L2*param.W.Data[k]
			a.W.Data[k] = beta1*a.W.Data[k] + (1-beta1)*dw
			b.W.Data[k] = beta2*b.W.Data[k] + (1-beta2)*dw*dw
			param.W.Data[k] -= opts.LearningRate * (a.W.Data[k] / bc1) / (math.Sqrt(b.W.Data[k]/bc2) + eps)
		}
		for k := range param.B {
			db := grad.B[k] * scale
			a.B[k] = beta1*a.B[k] + (1-beta1)*db
			b.B[k] = beta2*b.B[k] + (1-beta2)*db*db
			param.B[k] -= opts.LearningRate * (a.B[k] / bc1) / (math.Sqrt(b.B[k]/bc2) + eps)
		}
	}
}

// Gradients computes the mean analytic gradient over the examples and
// exposes it as flat slices aligned with Parameters(); it is all zeros for
// no examples, as Loss is. It exists for gradient-check tests and
// introspection tooling.
func (n *Network) Gradients(examples []Example) []float64 {
	n.mustCheck(examples)
	g := zeroLike(n.layers())
	ws := n.newWorkspace(true)
	for _, e := range examples {
		n.accumulate(e, g, &ws)
	}
	scale := 0.0
	if len(examples) > 0 {
		scale = 1.0 / float64(len(examples))
	}
	flat := make([]float64, 0, n.NumParams())
	for _, l := range g {
		for _, v := range l.W.Data {
			flat = append(flat, v*scale)
		}
		for _, v := range l.B {
			flat = append(flat, v*scale)
		}
	}
	return flat
}

// Parameters returns pointers to every trainable scalar, in a stable order
// matching Gradients. Mutating the pointed-to values changes the network.
func (n *Network) Parameters() []*float64 {
	var out []*float64
	for _, l := range n.layers() {
		for i := range l.W.Data {
			out = append(out, &l.W.Data[i])
		}
		for i := range l.B {
			out = append(out, &l.B[i])
		}
	}
	return out
}
