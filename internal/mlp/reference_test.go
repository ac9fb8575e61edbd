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

func refTrain(n *Network, examples []Example, opts TrainOptions) TrainStats {
	if len(examples) == 0 {
		return TrainStats{}
	}
	opts = opts.withDefaults()
	batch := opts.BatchSize
	if batch <= 0 || batch > len(examples) {
		batch = len(examples)
	}
	params := n.layers()
	g, vel, m1, m2 := zeroLike(params), zeroLike(params), zeroLike(params), zeroLike(params)
	src := rng.New(opts.Seed)
	stats := TrainStats{Epochs: opts.Epochs}
	adamStep := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		order := src.Perm(len(examples))
		var epochLoss float64
		for start := 0; start < len(order); start += batch {
			end := min(start+batch, len(order))
			zero(g)
			for _, idx := range order[start:end] {
				epochLoss += refAccumulate(n, examples[idx], g)
			}
			scale := 1.0 / float64(end-start)
			switch opts.Optimizer {
			case SGD:
				refApplySGD(params, g, vel, scale, opts)
			case Adam:
				adamStep++
				refApplyAdam(params, g, m1, m2, scale, adamStep, opts)
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

func refApplySGD(params, grads, vel []*linear, scale float64, opts TrainOptions) {
	for i, param := range params {
		grad, v := grads[i], vel[i]
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

func refApplyAdam(params, grads, m1, m2 []*linear, scale float64, step int, opts TrainOptions) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i, param := range params {
		grad, a, b := grads[i], m1[i], m2[i]
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

// bitCase is one generated network, dataset and optimizer setting.
type bitCase struct {
	Cfg      Config
	Examples []Example
	Opts     TrainOptions
}

func (c bitCase) String() string {
	return fmt.Sprintf("{hidden %v heads %v, %d examples, opts %+v}", c.Cfg.Hidden, c.Cfg.Heads, len(c.Examples), c.Opts)
}

func genBitCase() check.Gen[bitCase] {
	return check.Gen[bitCase]{Generate: func(t *check.T) bitCase {
		r := t.Rng
		cfg := Config{InputDim: 1 + r.Intn(5), Seed: r.Uint64()}
		for range r.Intn(3) { // 0, 1 or 2 hidden layers
			cfg.Hidden = append(cfg.Hidden, 1+r.Intn(8))
		}
		for range 1 + r.Intn(3) { // 1 to 3 heads
			cfg.Heads = append(cfg.Heads, 1+r.Intn(6))
		}
		examples := make([]Example, 1+r.Intn(12))
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
		opts := TrainOptions{
			Epochs:       1 + r.Intn(8),
			LearningRate: []float64{0, 0.02, 0.3}[r.Intn(3)],
			BatchSize:    r.Intn(len(examples) + 2), // 0 and len+1 mean full batch
			Optimizer:    Optimizer(r.Intn(2)),
			Seed:         r.Uint64(),
		}
		if r.Bernoulli(0.5) {
			opts.L2 = 1e-3 * (1 + r.Float64())
		}
		if r.Bernoulli(0.3) {
			opts.Momentum = r.Float64()
		}
		return bitCase{Cfg: cfg, Examples: examples, Opts: opts}
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
// compute exactly what the frozen reference computes: every parameter after
// training, FirstLoss, FinalLoss, every gradient component, every
// probability and the loss, compared by math.Float64bits. The cases cover
// 0-2 hidden layers (two reach the trunk's MulVecT backprop), 1-3 heads,
// SGD and Adam with and without L2, and batch sizes that do and do not
// divide the example count.
func TestPropTrainBitIdentical(t *testing.T) {
	t.Parallel()
	check.RunConfig(t, check.Config{Trials: 300}, genBitCase(), func(c bitCase) error {
		got, want := New(c.Cfg), New(c.Cfg)
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
		gs, ws := got.Train(c.Examples, c.Opts), refTrain(want, c.Examples, c.Opts)
		if gs.Epochs != ws.Epochs {
			return fmt.Errorf("Epochs = %d, want %d", gs.Epochs, ws.Epochs)
		}
		if err := sameBits("FirstLoss, FinalLoss", []float64{gs.FirstLoss, gs.FinalLoss}, []float64{ws.FirstLoss, ws.FinalLoss}); err != nil {
			return err
		}
		return sameBits("trained parameters", paramValues(got), paramValues(want))
	})
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
