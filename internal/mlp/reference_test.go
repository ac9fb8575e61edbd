package mlp

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"odin/internal/check"
	"odin/internal/mat"
	"odin/internal/rng"
)

// This file freezes the arithmetic of the training path as it was before
// Train and Gradients got a per-call workspace: fresh slices for every
// activation, softmax and backprop vector, a one-row-at-a-time
// matrix-vector product and a fresh permutation per epoch. The matrix
// kernels are frozen with it, zero-skips included, since they decide
// signed zeros; only the helpers that lay out zeroed layers are shared.
// TestPropTrainBitIdentical compares the production code against it bit
// for bit, so a refactor that reorders any floating-point operation fails
// here before it moves a golden.

// refMulVec is y = m·x one row at a time, each row summed left to right.
func refMulVec(m *mat.Dense, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for i := range y {
		var s float64
		for j, w := range m.Row(i) {
			s += w * x[j]
		}
		y[i] = s
	}
	return y
}

// refMulVecT is y = mᵀ·x, skipping rows whose x entry is zero.
func refMulVecT(m *mat.Dense, x []float64) []float64 {
	y := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, w := range m.Row(i) {
			y[j] += w * xi
		}
	}
	return y
}

// refAddOuter is m += a·bᵀ, skipping rows whose a entry is zero.
func refAddOuter(m *mat.Dense, a, b []float64) {
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Row(i)
		for j, bj := range b {
			row[j] += ai * bj
		}
	}
}

// refSoftmax is the max-subtracted softmax into a fresh slice.
func refSoftmax(z []float64) []float64 {
	p := make([]float64, len(z))
	mx := math.Inf(-1)
	for _, v := range z {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range z {
		p[i] = math.Exp(v - mx)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func refForward(n *Network, input []float64) (acts, logits [][]float64) {
	acts = make([][]float64, len(n.trunk)+1)
	acts[0] = input
	h := input
	for i, l := range n.trunk {
		z := refMulVec(l.W, h)
		for j := range z {
			z[j] += l.B[j]
			if z[j] < 0 {
				z[j] = 0
			}
		}
		acts[i+1] = z
		h = z
	}
	logits = make([][]float64, len(n.heads))
	for k, l := range n.heads {
		z := refMulVec(l.W, h)
		for j := range z {
			z[j] += l.B[j]
		}
		logits[k] = z
	}
	return acts, logits
}

func refLoss(n *Network, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	var total float64
	for _, e := range examples {
		_, logits := refForward(n, e.Input)
		for k, z := range logits {
			p := refSoftmax(z)
			total += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		}
	}
	return total / float64(len(examples))
}

// refAccumulate adds one example's gradient into g, laid out like layers.
func refAccumulate(n *Network, e Example, g []*linear) float64 {
	acts, logits := refForward(n, e.Input)
	top := acts[len(acts)-1]
	var loss float64
	dTop := make([]float64, len(top))
	for k, z := range logits {
		p := refSoftmax(z)
		loss += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		dz := p
		dz[e.Targets[k]] -= 1
		gh := g[len(n.trunk)+k]
		refAddOuter(gh.W, dz, top)
		for j := range dz {
			gh.B[j] += dz[j]
		}
		back := refMulVecT(n.heads[k].W, dz)
		for j := range dTop {
			dTop[j] += back[j]
		}
	}
	d := dTop
	for i := len(n.trunk) - 1; i >= 0; i-- {
		out := acts[i+1]
		for j := range d {
			if out[j] <= 0 {
				d[j] = 0
			}
		}
		refAddOuter(g[i].W, d, acts[i])
		for j := range d {
			g[i].B[j] += d[j]
		}
		if i > 0 {
			d = refMulVecT(n.trunk[i].W, d)
		}
	}
	return loss
}

// refDecay is the weight-decay coefficient of the frozen update, at the
// only value training ever used. It is a variable so that the compiler
// keeps refApplySGD's + refDecay·w term, which the production update no
// longer computes. For finite w that term is ±0, which DESIGN §2 argues
// moves no bit; for infinite w it is NaN, which turned an infinite weight
// NaN at its next step, and the production update keeps it infinite
// instead. So the reference adds the term to finite weights only.
var refDecay = 0.0

func refTrain(n *Network, examples []Example, opts TrainOptions) TrainStats {
	if len(examples) == 0 {
		return TrainStats{}
	}
	opts = opts.withDefaults()
	params := n.layers()
	g, vel := zeroLike(params), zeroLike(params)
	src := rng.New(opts.Seed)
	stats := TrainStats{Epochs: opts.Epochs}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		order := src.Perm(len(examples))
		var epochLoss float64
		zero(g)
		for _, idx := range order {
			epochLoss += refAccumulate(n, examples[idx], g)
		}
		refApplySGD(params, g, vel, 1.0/float64(len(examples)), opts.LearningRate)
		meanLoss := epochLoss / float64(len(examples))
		if epoch == 0 {
			stats.FirstLoss = meanLoss
		}
		stats.FinalLoss = meanLoss
	}
	return stats
}

func refApplySGD(params, grads, vel []*linear, scale, lr float64) {
	const momentum = 0.9
	for i, param := range params {
		grad, v := grads[i], vel[i]
		for k := range param.W.Data {
			dw := grad.W.Data[k] * scale
			if !math.IsInf(param.W.Data[k], 0) {
				dw += refDecay * param.W.Data[k]
			}
			v.W.Data[k] = momentum*v.W.Data[k] - lr*dw
			param.W.Data[k] += v.W.Data[k]
		}
		for k := range param.B {
			db := grad.B[k] * scale
			v.B[k] = momentum*v.B[k] - lr*db
			param.B[k] += v.B[k]
		}
	}
}

func refGradients(n *Network, examples []Example) []float64 {
	g := zeroLike(n.layers())
	for _, e := range examples {
		refAccumulate(n, e, g)
	}
	scale := 1.0 / float64(len(examples))
	var flat []float64
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

// bitCase is one generated network, dataset and training setting.
type bitCase struct {
	Cfg      Config
	Examples []Example
	Opts     TrainOptions
	// DeadShift is subtracted from every bias of the top trunk layer, so
	// that some or all examples leave its output all zeros.
	DeadShift float64
	// Poison, when Poisoned, overwrites parameter PoisonAt (in Parameters
	// order) with a non-finite or near-overflowing value.
	Poisoned  bool
	PoisonAt  int
	PoisonVal float64
	// Params, when set, replaces every parameter, in Parameters order,
	// before the shift and the poison.
	Params []float64
	// Again, when set, trains the network a second time after the first
	// Train call.
	Again *retrain
}

// retrain is a second Train call on a bitCase's network: on Examples with
// Opts, and on a Clone of the network when Clone is set.
type retrain struct {
	Examples []Example
	Opts     TrainOptions
	Clone    bool
}

func (c bitCase) String() string {
	s := fmt.Sprintf("{hidden %v heads %v, %d examples, opts %+v", c.Cfg.Hidden, c.Cfg.Heads, len(c.Examples), c.Opts)
	if c.DeadShift > 0 {
		s += fmt.Sprintf(", top trunk biases -%v", c.DeadShift)
	}
	if c.Params != nil {
		s += fmt.Sprintf(", parameters %v", c.Params)
	}
	if c.Poisoned {
		s += fmt.Sprintf(", parameter %d = %v", c.PoisonAt, c.PoisonVal)
	}
	if a := c.Again; a != nil {
		s += fmt.Sprintf(", then %d examples, opts %+v, clone %v", len(a.Examples), a.Opts, a.Clone)
	}
	return s + "}"
}

// network builds the case's network: New(c.Cfg) or c.Params, then the
// bias shift and the poisoned parameter.
func (c bitCase) network() *Network {
	n := New(c.Cfg)
	for i, p := range n.Parameters()[:len(c.Params)] {
		*p = c.Params[i]
	}
	if len(n.trunk) > 0 {
		top := n.trunk[len(n.trunk)-1]
		for j := range top.B {
			top.B[j] -= c.DeadShift
		}
	}
	if c.Poisoned {
		*n.Parameters()[c.PoisonAt] = c.PoisonVal
	}
	return n
}

// policyShape is the policy's own network: 4 inputs, a 16-unit ReLU
// trunk and two 6-way heads.
var policyShape = Config{InputDim: 4, Hidden: []int{16}, Heads: []int{6, 6}}

// genExamples draws n examples for cfg, with inputs in [−2, 2) and one
// input zeroed in a fifth of them.
func genExamples(r *rng.Source, cfg Config, n int) []Example {
	examples := make([]Example, n)
	for i := range examples {
		in := make([]float64, cfg.InputDim)
		for d := range in {
			in[d] = 4*r.Float64() - 2
		}
		if r.Bernoulli(0.2) {
			in[r.Intn(len(in))] = 0
		}
		tg := make([]int, len(cfg.Heads))
		for k, h := range cfg.Heads {
			tg[k] = r.Intn(h)
		}
		examples[i] = Example{Input: in, Targets: tg}
	}
	return examples
}

// genBitCase draws a network, a dataset and training options. One case
// in four takes policyShape with every example dead (a top trunk bias
// shift of 1000), up to 50 examples and up to 20 epochs, so that Train's
// fused all-dead epochs run on six-class heads; the others draw 0-2
// hidden layers of up to 8 units, 1-3 heads of up to 6 classes, up to 12
// examples and up to 8 epochs. Three cases in ten train the network a
// second time, with new examples, seed or options or with the same call,
// half of them on a Clone.
func genBitCase() check.Gen[bitCase] {
	return check.Gen[bitCase]{Generate: func(t *check.T) bitCase {
		r := t.Rng
		policy := r.Intn(4) == 0
		cfg := Config{InputDim: 1 + r.Intn(5), Seed: r.Uint64()}
		maxExamples, maxEpochs := 12, 8
		if policy {
			cfg = policyShape
			cfg.Seed = r.Uint64()
			maxExamples, maxEpochs = 50, 20
		} else {
			for range r.Intn(3) { // 0, 1 or 2 hidden layers
				cfg.Hidden = append(cfg.Hidden, 1+r.Intn(8))
			}
			for range 1 + r.Intn(3) { // 1 to 3 heads
				cfg.Heads = append(cfg.Heads, 1+r.Intn(6))
			}
		}
		// A learning rate of 1e308 overflows the head biases within a few
		// steps, so the cached probabilities of an all-dead network turn
		// non-finite while its steps are settled.
		genOpts := func() TrainOptions {
			return TrainOptions{
				Epochs:       1 + r.Intn(maxEpochs),
				LearningRate: []float64{0, 0.02, 0.3, 1e308}[r.Intn(4)],
				Seed:         r.Uint64(),
			}
		}
		c := bitCase{Cfg: cfg, Examples: genExamples(r, cfg, 1+r.Intn(maxExamples)), Opts: genOpts()}
		if policy {
			c.DeadShift = 1000
		} else if len(cfg.Hidden) > 0 && r.Bernoulli(0.5) {
			// The smaller shifts leave some examples alive, and training
			// can kill or revive more; 1000 kills every example for good.
			c.DeadShift = []float64{0.5, 1, 2, 4, 1000}[r.Intn(5)]
		}
		if r.Bernoulli(0.3) {
			// Half the poisoned parameters belong to a head, where a
			// non-finite value reaches the all-zero-trunk probabilities.
			n := New(cfg)
			first := 0
			if r.Bernoulli(0.5) {
				first = n.NumParams()
				for _, l := range n.heads {
					first -= len(l.W.Data) + len(l.B)
				}
			}
			c.Poisoned = true
			c.PoisonAt = first + r.Intn(n.NumParams()-first)
			c.PoisonVal = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308}[r.Intn(5)]
		}
		if r.Bernoulli(0.3) {
			// The second call takes new examples, a new seed only, new
			// options or none of these, so that it needs a new shuffle
			// schedule or reuses the network's.
			a := &retrain{Examples: c.Examples, Opts: c.Opts, Clone: r.Bernoulli(0.5)}
			switch r.Intn(4) {
			case 0:
				a.Examples = genExamples(r, cfg, 1+r.Intn(maxExamples))
			case 1:
				a.Opts.Seed = r.Uint64()
			case 2:
				a.Opts = genOpts()
			}
			c.Again = a
		}
		return c
	}}
}

// sameBits reports the first index where two vectors differ in bits.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

func paramValues(n *Network) []float64 {
	ps := n.Parameters()
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}

// TestPropTrainBitIdentical pins that Predict, Loss, Gradients and Train
// compute exactly what the frozen reference computes (matchesReference).
// The cases cover 0-2 hidden layers (two reach the trunk's MulVecT
// backprop) and 1-3 heads. The reference's update adds the old + 0·w
// weight-decay term to every finite weight, so the cases also show that
// the production update, which has none, moves no bit there. Half the
// cases with a hidden layer shift its top biases down, so that some or all
// examples take the all-zero-trunk path, whose cached probabilities every
// optimizer step invalidates; three in ten set one parameter to ±Inf, NaN
// or ±1e308, which sends those examples down the dense path instead. The
// shifted cases also drive Train's frozen-trunk shortcuts (DESIGN §2):
// dead verdicts forgotten whenever a trunk bit moves, and all-dead steps
// that clear and, once settled, update only the head biases. One case in
// four is the policy's own shape with every example dead, whose epochs
// run fused, and three in ten train a second time, on a Clone in half of
// them, so that a kept shuffle schedule must match the call. The
// hand-built cases run first.
func TestPropTrainBitIdentical(t *testing.T) {
	t.Parallel()
	for _, c := range handBuiltCases() {
		if err := matchesReference(c); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	check.RunConfig(t, check.Config{Trials: 300}, genBitCase(), matchesReference)
}

// matchesReference builds the case's network twice and compares the
// production code with the frozen reference on it: every probability, the
// loss, every gradient component, FirstLoss, FinalLoss and every parameter
// after training, by math.Float64bits; then the same after the second
// Train call, if the case has one.
func matchesReference(c bitCase) error {
	got, want := c.network(), c.network()
	for _, e := range c.Examples {
		_, logits := refForward(want, e.Input)
		for k, p := range got.Predict(e.Input) {
			if err := sameBits(fmt.Sprintf("Predict head %d", k), p, refSoftmax(logits[k])); err != nil {
				return err
			}
		}
	}
	if err := sameBits("Loss", []float64{got.Loss(c.Examples)}, []float64{refLoss(want, c.Examples)}); err != nil {
		return err
	}
	if err := sameBits("Gradients", got.Gradients(c.Examples), refGradients(want, c.Examples)); err != nil {
		return err
	}
	train := func(call string, examples []Example, opts TrainOptions) error {
		gs, ws := got.Train(examples, opts), refTrain(want, examples, opts)
		if gs.Epochs != ws.Epochs {
			return fmt.Errorf("%s: Epochs = %d, want %d", call, gs.Epochs, ws.Epochs)
		}
		if err := sameBits(call+": FirstLoss, FinalLoss", []float64{gs.FirstLoss, gs.FinalLoss}, []float64{ws.FirstLoss, ws.FinalLoss}); err != nil {
			return err
		}
		return sameBits(call+": trained parameters", paramValues(got), paramValues(want))
	}
	if err := train("Train", c.Examples, c.Opts); err != nil || c.Again == nil {
		return err
	}
	if c.Again.Clone {
		got = got.Clone()
	}
	return train("second Train", c.Again.Examples, c.Again.Opts)
}

// handBuiltCases are the cases TestPropTrainBitIdentical runs before the
// generated ones, each aimed at one shortcut that generated cases reach
// rarely:
//   - staleHeadsCase and settledNaNCase (below);
//   - tied maximal logits, and a +Inf and a NaN maximal logit, for which
//     mat.Softmax must still call math.Exp;
//   - policyShape trained twice with every example dead, the second time
//     under a different seed, example count or epoch count, or on a Clone
//     with all three different: a network keeps its shuffle schedule only
//     for the (seed, example count, epochs) it was drawn for, and a Clone
//     shares it.
func handBuiltCases() []bitCase {
	cases := []bitCase{staleHeadsCase, settledNaNCase}
	// One input, one ReLU unit (weight 1, bias 0) and a 3-way head with
	// zero weights: the logits are the head biases, and the first two tie.
	logits := bitCase{
		Cfg: Config{InputDim: 1, Hidden: []int{1}, Heads: []int{3}, Seed: 1},
		Examples: []Example{
			{Input: []float64{1}, Targets: []int{2}},
			{Input: []float64{0.5}, Targets: []int{0}},
		},
		Opts:   TrainOptions{Epochs: 3, Seed: 1},
		Params: []float64{1, 0, 0, 0, 0, 0.5, 0.5, -1}, // trunk w, b; head w, b
	}
	cases = append(cases, logits)
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		c := logits
		c.Poisoned, c.PoisonAt, c.PoisonVal = true, 6, v // the second head bias
		cases = append(cases, c)
	}
	r := rng.New(7)
	cfg := policyShape
	cfg.Seed = 7
	dead := bitCase{Cfg: cfg, Examples: genExamples(r, cfg, 20), Opts: TrainOptions{Epochs: 10, Seed: 1}, DeadShift: 1000}
	other := genExamples(r, cfg, 13)
	for _, a := range []retrain{
		{Examples: dead.Examples, Opts: TrainOptions{Epochs: 10, Seed: 2}},
		{Examples: other, Opts: dead.Opts},
		{Examples: dead.Examples, Opts: TrainOptions{Epochs: 11, Seed: 1}},
		{Examples: other[:11], Opts: TrainOptions{Epochs: 7, Seed: 3}, Clone: true},
	} {
		c := dead
		c.Again = &a
		cases = append(cases, c)
	}
	return cases
}

// staleHeadsCase turns a head weight infinite in a step that also kills
// every example, so the next epoch's bias-only logits are Inf·0 = NaN: a
// Train that kept its finite-head-weights verdict from before the step
// would compute +0 + b instead. The trunk unit 100·x is on for x = 1 and
// off for x = 0; the first step's gradient, at learning rate 1e308,
// overflows the head weight column and drives the trunk bias far below
// −100.
var staleHeadsCase = bitCase{
	Cfg: Config{InputDim: 1, Hidden: []int{1}, Heads: []int{2}, Seed: 1},
	Examples: []Example{
		{Input: []float64{1}, Targets: []int{0}},
		{Input: []float64{0}, Targets: []int{1}},
	},
	Opts:   TrainOptions{Epochs: 2, LearningRate: 1e308, Seed: 1},
	Params: []float64{100, 0, -0.01, 0.01, 0, 0}, // trunk w, b; head w, b
}

// settledNaNCase starts with its one example dead (the trunk unit
// x − 1 is off at x = 0), so every step is settled and moves only the
// head biases. At learning rate 1e308 their momentum overflows a bias to
// +Inf in the fifth step, and the cached all-zero-trunk probabilities
// turn NaN: the sixth epoch must leave the fused all-dead loop for
// accumulate's dense pass, which spreads the NaN into the head-weight
// gradients as the reference does.
var settledNaNCase = bitCase{
	Cfg:      Config{InputDim: 1, Hidden: []int{1}, Heads: []int{2}, Seed: 1},
	Examples: []Example{{Input: []float64{0}, Targets: []int{0}}},
	Opts:     TrainOptions{Epochs: 8, LearningRate: 1e308, Seed: 1},
	Params:   []float64{1, -1, 0.01, -0.01, 0, 0}, // trunk w, b; head w, b
}

// refClassify is the arg-max of each head's reference logits, the first
// index on ties.
func refClassify(n *Network, input []float64) []int {
	_, logits := refForward(n, input)
	out := make([]int, len(logits))
	for k, z := range logits {
		for i, v := range z {
			if v > z[out[k]] {
				out[k] = i
			}
		}
	}
	return out
}

// TestPropClassifyIntoMatchesReference reuses one Forward across a run of
// generated networks with 0-2 hidden layers and 1-3 heads, across every
// input of each, and across a Train call on each: every ClassifyInto must
// return the classes of the frozen reference forward pass. Odd-numbered
// networks are decoded in place into the previous one's *Network, as
// UnmarshalJSON does, and even-numbered ones are fresh pointers, so the
// Forward must notice both kinds of replacement.
func TestPropClassifyIntoMatchesReference(t *testing.T) {
	t.Parallel()
	check.RunConfig(t, check.Config{Trials: 200}, check.SliceOf(genBitCase(), 1, 4), func(cases []bitCase) error {
		var f Forward
		var n *Network
		for i, c := range cases {
			if i%2 == 0 {
				n = New(c.Cfg)
			} else {
				data, err := json.Marshal(New(c.Cfg))
				if err != nil {
					return err
				}
				if err := json.Unmarshal(data, n); err != nil {
					return err
				}
			}
			for _, stage := range []string{"before Train", "after Train"} {
				for _, e := range c.Examples {
					got, want := n.ClassifyInto(&f, e.Input), refClassify(n, e.Input)
					if !slices.Equal(got, want) {
						return fmt.Errorf("network %d %v, %s: ClassifyInto(%v) = %v, reference %v",
							i, c, stage, e.Input, got, want)
					}
				}
				n.Train(c.Examples, c.Opts)
			}
		}
		return nil
	})
}
