// Package mlp implements a small, dependency-free multi-layer perceptron
// with an arbitrary number of independent softmax output heads.
//
// The Odin OU-configuration policy (paper §III.A) is "a multi-output MLP
// classifier ... one input layer (4 neurons) with the ReLU activation and two
// separate output layers (6 neurons each) with the softmax activation": a
// shared ReLU trunk feeding two 6-way heads that independently classify the
// OU height level (R) and width level (C). Go has no ML ecosystem to lean
// on, so the full stack — forward pass, backprop, cross-entropy over multiple
// heads and SGD with momentum — is implemented here without dependencies
// and verified against numerical gradients in the tests.
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
	// sched is the shuffle schedule of the network's last Train call.
	sched schedule
}

// schedule is every epoch's shuffled example order for Train's options on
// size examples, epoch after epoch, as rng.New(seed).PermInto draws them.
// The orders depend only on the key, and nothing writes them once drawn,
// so clones share them.
type schedule struct {
	seed         uint64
	size, epochs int
	orders       []int32
}

// shuffles returns the shuffle schedule for opts on size examples, drawn
// on the first Train call with this (seed, size, epochs) and kept for the
// next. Train draws nothing else from its random source, so the kept
// orders are exactly what a fresh source would draw.
func (n *Network) shuffles(size int, opts TrainOptions) []int32 {
	s := &n.sched
	if s.orders == nil || s.seed != opts.Seed || s.size != size || s.epochs != opts.Epochs {
		src := rng.New(opts.Seed)
		orders := make([]int32, size*max(opts.Epochs, 0))
		for e := range opts.Epochs {
			src.PermInto(orders[e*size : (e+1)*size])
		}
		*s = schedule{seed: opts.Seed, size: size, epochs: opts.Epochs, orders: orders}
	}
	return s.orders
}

// New builds a network with He-initialised weights drawn from the config
// seed. It panics if the config is invalid (a construction-time programming
// error, not a runtime condition).
func New(cfg Config) *Network {
	if err := cfg.validate(); err != nil {
		panic(fmt.Sprintf("mlp: %v", err))
	}
	src := rng.New(cfg.Seed ^ 0x6f64696e6d6c70) // decorrelate from other subsystems
	n := &Network{
		cfg:   cfg,
		trunk: make([]*linear, 0, len(cfg.Hidden)),
		heads: make([]*linear, 0, len(cfg.Heads)),
	}
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

// Clone returns an independent deep copy of the network. It shares the
// shuffle schedule, which no Train call writes.
func (n *Network) Clone() *Network {
	c := &Network{cfg: n.cfg, sched: n.sched}
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
// Parameters and Gradients, and the shape of gradients and velocities.
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

	// active lists, in increasing order, the units of the last top trunk
	// output that are not ±0, NaN included; headsFinite says every head
	// weight is finite (training only).
	active      []int
	headsFinite bool

	// dead is each head's softmax for an all-zero trunk output, which
	// depends on the head biases alone (training only). deadFresh says it
	// matches the current parameters, deadFinite that every probability
	// in it is finite.
	dead                  [][]float64
	deadFresh, deadFinite bool

	// zeroTop is an all-zero top trunk output, which deadProbs runs the
	// heads on when a head weight is not finite; trunkAt holds the trunk
	// parameters, weights then biases per layer, under which Train's dead
	// verdicts were found; addend holds, head after head, the row
	// p − onehot(t) of dead for each target class t (training only).
	zeroTop, trunkAt, addend []float64
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
		top := len(ws.grad[len(n.trunk)])
		ws.active = make([]int, 0, top)
		ws.headsFinite = n.headWeightsFinite()
		ws.dead = make([][]float64, len(n.heads))
		addend := 0
		for k, l := range n.heads {
			ws.dead[k] = make([]float64, len(l.B))
			addend += len(l.B) * len(l.B)
		}
		trunkParams := 0
		for _, l := range n.trunk {
			trunkParams += len(l.W.Data) + len(l.B)
		}
		buf := make([]float64, top+trunkParams+addend)
		ws.zeroTop, buf = buf[:top:top], buf[top:]
		ws.trunkAt, ws.addend = buf[:trunkParams:trunkParams], buf[trunkParams:]
	}
	return ws
}

// trunkPass runs the ReLU trunk on input, leaving every post-activation in
// ws.acts, and returns the top one: the input itself when there is no
// hidden layer.
func (n *Network) trunkPass(input []float64, ws *workspace) []float64 {
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
	return h
}

// headPass writes each head's raw logits for the trunk output h into
// logits.
func (n *Network) headPass(h []float64, logits [][]float64) {
	for k, l := range n.heads {
		z := l.W.MulVec(h, logits[k])
		for j := range z {
			z[j] += l.B[j]
		}
	}
}

// forward runs the network on input, leaving every post-activation in
// ws.acts and the raw logits per head in ws.logits.
func (n *Network) forward(input []float64, ws *workspace) {
	n.headPass(n.trunkPass(input, ws), ws.logits)
}

// softmaxInPlace replaces each head's logits with their softmax and
// returns logits.
func softmaxInPlace(logits [][]float64) [][]float64 {
	for _, z := range logits {
		mat.Softmax(z, z)
	}
	return logits
}

// probabilities runs forward and replaces each head's logits with their
// softmax in place, returning ws.logits.
func (n *Network) probabilities(input []float64, ws *workspace) [][]float64 {
	n.forward(input, ws)
	return softmaxInPlace(ws.logits)
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

// zeroLike returns zeroed layers shaped like ls: gradients and velocities
// in parameter order.
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

// finite reports whether every element of v is neither NaN nor ±Inf.
func finite(v []float64) bool {
	for _, x := range v {
		if !(math.Abs(x) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// headWeightsFinite reports whether every head weight is finite.
func (n *Network) headWeightsFinite() bool {
	for _, l := range n.heads {
		if !finite(l.W.Data) {
			return false
		}
	}
	return true
}

// deadProbs returns each head's softmax for an all-zero trunk output, or
// nil when some probability is NaN or ±Inf. Only the first call after the
// parameters changed computes the logits and the softmax; every other call
// reads ws.dead. With every head weight finite, each product w·(+0) is ±0
// and each MulVec sum starts at +0, so a logit is exactly +0 + b;
// otherwise the heads run on ws.zeroTop.
func (n *Network) deadProbs(ws *workspace) [][]float64 {
	if !ws.deadFresh {
		if ws.headsFinite {
			for k, l := range n.heads {
				for j, b := range l.B {
					ws.dead[k][j] = 0 + b // not folded to b: +0 + (−0) is +0
				}
			}
		} else {
			n.headPass(ws.zeroTop, ws.dead)
		}
		ws.deadFresh, ws.deadFinite = true, true
		for _, p := range softmaxInPlace(ws.dead) {
			ws.deadFinite = ws.deadFinite && finite(p)
		}
	}
	if !ws.deadFinite {
		return nil
	}
	return ws.dead
}

// activeUnits appends to dst the indices of v's elements that are not ±0,
// NaN included, and returns it.
func activeUnits(v []float64, dst []int) []int {
	for j, x := range v {
		if x != 0 {
			dst = append(dst, j)
		}
	}
	return dst
}

// activeHeadPass is headPass summing only the products of the units of h
// listed in active. With every head weight finite, each skipped product is
// ±0, and adding ±0 to a sum that starts at +0, and so is never −0, leaves
// its bits alone. As in MulVec, rows go in pairs with one accumulator
// each, and each row still sums its products in order.
func (n *Network) activeHeadPass(h []float64, active []int, logits [][]float64) {
	for k, l := range n.heads {
		z := logits[k]
		i := 0
		for ; i+1 < len(z); i += 2 {
			r0, r1 := l.W.Row(i), l.W.Row(i+1)
			r0, r1 = r0[:len(h)], r1[:len(h)] // one bounds check per unit, on h[j]
			var s0, s1 float64
			for _, j := range active {
				x := h[j]
				s0 += r0[j] * x
				s1 += r1[j] * x
			}
			z[i], z[i+1] = s0+l.B[i], s1+l.B[i+1]
		}
		if i < len(z) {
			row := l.W.Row(i)
			var s float64
			for _, j := range active {
				s += row[j] * h[j]
			}
			z[i] = s + l.B[i]
		}
	}
}

// backActive runs one head's backward pass on the units of h listed in
// active. For each listed unit j it sums entry j of Wᵀ·dz into dTop[j],
// down the rows and skipping those whose dz entry is zero, as MulVecT
// does; unless gw is nil it also adds dz_i·h_j into the gradient cell
// (i, j) of each row it visits, as AddOuterScaled does for those rows.
// Each cell takes one addition, and each sum keeps its order. With dz
// finite, a cell (i, j) of an unlisted unit would add dz_i·(±0) = ±0 to a
// cell that starts at +0 and so is never −0: its bits would stay.
func backActive(dTop, h []float64, gw, w *mat.Dense, dz []float64, active []int) {
	cols := w.Cols
	a := 0
	for ; a+1 < len(active); a += 2 {
		j0, j1 := active[a], active[a+1]
		h0, h1 := h[j0], h[j1]
		var s0, s1 float64
		for i, dzi := range dz {
			if dzi != 0 {
				c := i * cols
				s0 += w.Data[c+j0] * dzi
				s1 += w.Data[c+j1] * dzi
				if gw != nil {
					gw.Data[c+j0] += dzi * h0
					gw.Data[c+j1] += dzi * h1
				}
			}
		}
		dTop[j0] += s0
		dTop[j1] += s1
	}
	if a < len(active) {
		j := active[a]
		hj := h[j]
		var s float64
		for i, dzi := range dz {
			if dzi != 0 {
				s += w.Data[i*cols+j] * dzi
				if gw != nil {
					gw.Data[i*cols+j] += dzi * hj
				}
			}
		}
		dTop[j] += s
	}
}

// accumulate adds ∂loss/∂θ for a single example into g (laid out like
// layers). With withLoss it also returns that example's loss; without, it
// skips the logarithms and returns 0. *dead is the example's verdict: true
// when its top trunk output is known to be all zeros under the current
// trunk parameters, which spares it trunkPass; accumulate sets it when
// trunkPass finds so.
//
// When the top trunk output is all zeros and the cached probabilities
// are finite, only the head biases' gradient p − onehot(target) is
// added, and accumulate reports that it took this bias-only path.
// Otherwise only the active units of the top trunk output, those that are
// not ±0, take part in the logits, the head-weight gradients, the
// back-projection Wᵀ·dz and the top trunk layer's gradients. DESIGN §2
// argues why every term skipped on either path leaves g's bits as they
// are.
func (n *Network) accumulate(e Example, dead *bool, g []*linear, ws *workspace, withLoss bool) (loss float64, biasOnly bool) {
	var top []float64
	if !*dead {
		top = n.trunkPass(e.Input, ws)
		ws.active = activeUnits(top, ws.active[:0])
		*dead = len(ws.active) == 0
	}
	if *dead {
		if probs := n.deadProbs(ws); probs != nil {
			for k, p := range probs {
				tgt := e.Targets[k]
				if withLoss {
					loss += -math.Log(math.Max(p[tgt], 1e-300))
				}
				gb := g[len(n.trunk)+k].B
				for j, dz := range p {
					if j == tgt {
						dz -= 1
					}
					gb[j] += dz
				}
			}
			return loss, true
		}
		if top == nil {
			top = n.trunkPass(e.Input, ws)
			ws.active = ws.active[:0]
		}
	}
	act := ws.active
	if ws.headsFinite {
		n.activeHeadPass(top, act, ws.logits)
	} else {
		n.headPass(top, ws.logits)
	}
	probs := softmaxInPlace(ws.logits)

	// dTop accumulates the gradient flowing back into the trunk output from
	// every head, on the active units only: the ReLU mask overwrites an
	// inactive unit's gradient with +0, the value clear leaves there.
	dTop := ws.grad[len(n.trunk)]
	clear(dTop)
	for k, p := range probs {
		if withLoss {
			loss += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		}
		// dLogits = p - onehot(target)
		dz := p // reuse; p is this head's workspace buffer
		dz[e.Targets[k]] -= 1
		gh := g[len(n.trunk)+k]
		gw := gh.W
		if !finite(dz) {
			gh.W.AddOuterScaled(1, dz, top)
			gw = nil
		}
		backActive(dTop, top, gw, n.heads[k].W, dz, act)
		for j := range dz {
			gh.B[j] += dz[j]
		}
	}

	// Backprop through the ReLU trunk. The top layer's active units pass
	// its ReLU mask, and its inactive ones add only +0, so only the active
	// units touch its gradients.
	last := len(n.trunk) - 1
	if last < 0 {
		return loss, false
	}
	gl, in := g[last], ws.acts[last]
	for _, j := range act {
		if dj := dTop[j]; dj != 0 {
			row := gl.W.Row(j)
			for c, x := range in {
				row[c] += dj * x
			}
		}
		gl.B[j] += dTop[j]
	}
	d := dTop
	for i := last - 1; i >= 0; i-- {
		d = n.trunk[i+1].W.MulVecT(d, ws.grad[i+1])
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
	}
	return loss, false
}

// targetColumns returns the examples' targets head by head: entry
// k·len(examples) + i is example i's target for head k.
func targetColumns(examples []Example, heads int) []int32 {
	cols := make([]int32, heads*len(examples))
	for i, e := range examples {
		for k, t := range e.Targets {
			cols[k*len(examples)+i] = int32(t)
		}
	}
	return cols
}

// deadEpoch accumulates one epoch in which every example is known dead and
// probs, the cached dead probabilities, are finite, and returns its summed
// loss when withLoss. targets holds the examples' targets as
// targetColumns lays them out. It writes each head's rows p − onehot(t)
// into addend, and each example adds its targets' rows into the head-bias
// gradients, so every cell takes the same additions in the same order as
// on accumulate's bias-only path.
func deadEpoch(targets, order []int32, probs [][]float64, headGrads []*linear, addend []float64, withLoss bool) float64 {
	size := len(targets) / len(probs)
	a := addend
	for k, p := range probs {
		h := len(p)
		rows := a[:h*h]
		for t := range p {
			row := rows[t*h : (t+1)*h]
			copy(row, p)
			row[t] -= 1
		}
		addTargetRows(headGrads[k].B[:h], rows, targets[k*size:(k+1)*size], order)
		a = a[h*h:]
	}
	var epochLoss float64
	if withLoss {
		for _, idx := range order {
			var loss float64
			for k, p := range probs {
				loss += -math.Log(math.Max(p[targets[k*size+int(idx)]], 1e-300))
			}
			epochLoss += loss
		}
	}
	return epochLoss
}

// addTargetRows adds into gb, for each example idx of order in turn, row
// targets[idx] of rows, whose rows are len(gb) wide. The cells are
// independent sums, so six of them at a time run in registers, one pass
// over order each, and a narrower rest one at a time; each cell still
// takes its additions in example order.
func addTargetRows(gb, rows []float64, targets, order []int32) {
	h := len(gb)
	j := 0
	for ; j+6 <= h; j += 6 {
		s0, s1, s2, s3, s4, s5 := gb[j], gb[j+1], gb[j+2], gb[j+3], gb[j+4], gb[j+5]
		for _, idx := range order {
			r := rows[int(targets[idx])*h+j:][:6]
			s0 += r[0]
			s1 += r[1]
			s2 += r[2]
			s3 += r[3]
			s4 += r[4]
			s5 += r[5]
		}
		gb[j], gb[j+1], gb[j+2], gb[j+3], gb[j+4], gb[j+5] = s0, s1, s2, s3, s4, s5
	}
	for ; j < h; j++ {
		s := gb[j]
		for _, idx := range order {
			s += rows[int(targets[idx])*h+j]
		}
		gb[j] = s
	}
}

// trunkMoved reports whether any trunk parameter's bits differ from those
// in at, laid out as in workspace.trunkAt, and copies them into at.
func (n *Network) trunkMoved(at []float64) bool {
	moved := false
	i := 0
	for _, l := range n.trunk {
		for _, vs := range [2][]float64{l.W.Data, l.B} {
			for _, v := range vs {
				if math.Float64bits(v) != math.Float64bits(at[i]) {
					moved = true
					at[i] = v
				}
				i++
			}
		}
	}
	return moved
}

// TrainOptions configures Train. Zero values get the defaults.
type TrainOptions struct {
	Epochs       int     // default 100 (the paper trains the policy 100 epochs per update)
	LearningRate float64 // default 0.05
	Seed         uint64  // shuffling seed, default 1
}

// momentum is the SGD momentum coefficient.
const momentum = 0.9

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 100
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.05
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

// Train fits the network to the examples by full-batch SGD with momentum,
// one step per epoch over the examples in a seeded shuffled order, and
// reports first/final epoch mean loss. Training is deterministic given
// the options' seed. Its buffers are sized once per call, so epochs and
// examples allocate nothing. The shuffled orders are drawn once per
// (seed, example count, epochs) and kept on the network, epochs × examples
// int32s, for the next call with the same shape (DESIGN §2, "Cheaper
// epochs").
//
// Three shortcuts change no bit of the result (DESIGN §2, "Frozen
// trunks"). An example whose top trunk output was all zeros skips
// trunkPass until a step moves a trunk parameter. A step in which every
// example took the bias-only path wrote only the head-bias gradients, so
// the next step clears only those; and once such a step left every other
// parameter and velocity as it was, later ones update only the head
// biases, and while the cached probabilities stay finite, their epochs
// run as one deadEpoch loop instead of one accumulate call per example.
func (n *Network) Train(examples []Example, opts TrainOptions) TrainStats {
	if len(examples) == 0 {
		return TrainStats{}
	}
	n.mustCheck(examples)
	opts = opts.withDefaults()
	params := n.layers()
	g, vel := zeroLike(params), zeroLike(params)
	ws := n.newWorkspace(true)
	// dead[i] says example i's top trunk output is all zeros under the
	// trunk parameters in ws.trunkAt.
	dead := make([]bool, len(examples))
	n.trunkMoved(ws.trunkAt) // copies the starting trunk into ws.trunkAt
	headGrads, headVel := g[len(n.trunk):], vel[len(n.trunk):]
	// clean says every gradient cell but the head biases' holds +0;
	// settled, that the last step had such a gradient and left every
	// parameter and velocity but the head biases' as it was.
	clean, settled := true, false
	orders := n.shuffles(len(examples), opts)
	var targets []int32 // targetColumns, built for the first fused epoch
	scale := 1.0 / float64(len(examples))
	stats := TrainStats{Epochs: opts.Epochs}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		// TrainStats reports the first and the last epoch's loss, so only
		// those two epochs compute it.
		withLoss := epoch == 0 || epoch == opts.Epochs-1
		order := orders[epoch*len(examples) : (epoch+1)*len(examples)]
		if clean {
			for _, l := range headGrads {
				clear(l.B)
			}
		} else {
			zero(g)
		}
		var epochLoss float64
		var probs [][]float64
		if settled {
			// The settled step's examples all took the bias-only path and
			// the trunk stood still, so every verdict still says dead.
			probs = n.deadProbs(&ws)
		}
		if probs != nil {
			if targets == nil {
				targets = targetColumns(examples, len(n.heads))
			}
			epochLoss = deadEpoch(targets, order, probs, headGrads, ws.addend, withLoss)
		} else {
			clean = true
			for _, idx := range order {
				loss, biasOnly := n.accumulate(examples[idx], &dead[idx], g, &ws, withLoss)
				epochLoss += loss
				clean = clean && biasOnly
			}
		}
		ws.deadFresh = false // the step moves the parameters
		if settled && clean {
			// Only the head biases move, so the trunk stands still.
			for k, l := range n.heads {
				sgd(l.B, headGrads[k].B, headVel[k].B, scale, opts.LearningRate)
			}
		} else {
			settled = !applySGD(params, g, vel, scale, opts.LearningRate, len(n.trunk)) && clean
			ws.headsFinite = n.headWeightsFinite()
			if n.trunkMoved(ws.trunkAt) {
				clear(dead)
			}
		}
		if withLoss {
			meanLoss := epochLoss / float64(len(examples))
			if epoch == 0 {
				stats.FirstLoss = meanLoss
			}
			stats.FinalLoss = meanLoss
		}
	}
	return stats
}

// applySGD takes one SGD-with-momentum step on params and reports whether
// it changed any bit of a parameter or velocity other than the biases of
// the head layers params[firstHead:].
func applySGD(params, g, vel []*linear, scale, lr float64, firstHead int) bool {
	moved := false
	for i, param := range params {
		w := sgd(param.W.Data, g[i].W.Data, vel[i].W.Data, scale, lr)
		b := sgd(param.B, g[i].B, vel[i].B, scale, lr)
		moved = moved || w || (b && i < firstHead)
	}
	return moved
}

// sgd steps the parameters p, with gradient sums gp and velocities v, and
// reports whether any bit of p or v changed.
func sgd(p, gp, v []float64, scale, lr float64) bool {
	var diff uint64
	for k, pk := range p {
		vk := momentum*v[k] - lr*(gp[k]*scale)
		np := pk + vk
		diff |= (math.Float64bits(vk) ^ math.Float64bits(v[k])) | (math.Float64bits(np) ^ math.Float64bits(pk))
		v[k], p[k] = vk, np
	}
	return diff != 0
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
		var dead bool
		n.accumulate(e, &dead, g, &ws, false)
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
