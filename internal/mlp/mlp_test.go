package mlp

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"odin/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{InputDim: 0, Heads: []int{2}},
		{InputDim: 3},
		{InputDim: 3, Hidden: []int{0}, Heads: []int{2}},
		{InputDim: 3, Heads: []int{0}},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should have panicked", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPredictShapesAndNormalisation(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 4, Hidden: []int{8}, Heads: []int{6, 6}, Seed: 1})
	probs := n.Predict([]float64{0.1, 0.5, -0.2, 1})
	if len(probs) != 2 {
		t.Fatalf("want 2 heads, got %d", len(probs))
	}
	for k, p := range probs {
		if len(p) != 6 {
			t.Fatalf("head %d has %d classes, want 6", k, len(p))
		}
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("head %d probability out of range: %v", k, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("head %d probabilities sum to %v", k, sum)
		}
	}
}

func TestNumParams(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 4, Hidden: []int{8}, Heads: []int{6, 6}, Seed: 1})
	// trunk: 8*4+8 = 40; each head: 6*8+6 = 54; total 40+108 = 148.
	if got := n.NumParams(); got != 148 {
		t.Fatalf("NumParams = %d, want 148", got)
	}
	if got := len(n.Parameters()); got != 148 {
		t.Fatalf("len(Parameters) = %d, want 148", got)
	}
}

func TestDeterministicInit(t *testing.T) {
	t.Parallel()
	a := New(Config{InputDim: 3, Hidden: []int{5}, Heads: []int{4}, Seed: 42})
	b := New(Config{InputDim: 3, Hidden: []int{5}, Heads: []int{4}, Seed: 42})
	pa, pb := a.Parameters(), b.Parameters()
	for i := range pa {
		if *pa[i] != *pb[i] {
			t.Fatalf("same seed produced different parameter %d", i)
		}
	}
	c := New(Config{InputDim: 3, Hidden: []int{5}, Heads: []int{4}, Seed: 43})
	pc := c.Parameters()
	same := true
	for i := range pa {
		if *pa[i] != *pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 2, Hidden: []int{3}, Heads: []int{2}, Seed: 5})
	c := n.Clone()
	*c.Parameters()[0] = 1234
	if *n.Parameters()[0] == 1234 {
		t.Fatal("Clone shares storage with original")
	}
}

// Gradient check: analytic gradients must match central finite differences.
func TestGradientCheck(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 4, Hidden: []int{6, 5}, Heads: []int{3, 4}, Seed: 9})
	src := rng.New(77)
	var examples []Example
	for i := 0; i < 5; i++ {
		in := make([]float64, 4)
		for j := range in {
			in[j] = src.NormFloat64()
		}
		examples = append(examples, Example{
			Input:   in,
			Targets: []int{src.Intn(3), src.Intn(4)},
		})
	}
	analytic := n.Gradients(examples)
	params := n.Parameters()
	if len(analytic) != len(params) {
		t.Fatalf("gradient length %d != param length %d", len(analytic), len(params))
	}
	const h = 1e-6
	maxRel := 0.0
	for i, p := range params {
		orig := *p
		*p = orig + h
		up := n.Loss(examples)
		*p = orig - h
		down := n.Loss(examples)
		*p = orig
		numeric := (up - down) / (2 * h)
		denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic[i]))
		rel := math.Abs(numeric-analytic[i]) / denom
		if rel > maxRel {
			maxRel = rel
		}
		if rel > 1e-4 && math.Abs(numeric-analytic[i]) > 1e-6 {
			t.Fatalf("gradient mismatch at param %d: analytic %v numeric %v (rel %v)", i, analytic[i], numeric, rel)
		}
	}
	t.Logf("max relative gradient error: %v", maxRel)
}

func TestTrainReducesLoss(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 2, Hidden: []int{16}, Heads: []int{2}, Seed: 3})
	// XOR-like problem: class = a XOR b.
	var examples []Example
	for _, in := range [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		cls := 0
		if (in[0] > 0.5) != (in[1] > 0.5) {
			cls = 1
		}
		examples = append(examples, Example{Input: in, Targets: []int{cls}})
	}
	before := n.Loss(examples)
	stats := n.Train(examples, TrainOptions{Epochs: 500, LearningRate: 0.1})
	after := n.Loss(examples)
	if after >= before {
		t.Fatalf("training did not reduce loss: %v -> %v", before, after)
	}
	if stats.FinalLoss > 0.1 {
		t.Fatalf("XOR not learned, final loss %v", stats.FinalLoss)
	}
	for _, e := range examples {
		if got := n.Classify(e.Input)[0]; got != e.Targets[0] {
			t.Fatalf("XOR misclassified %v: got %d want %d", e.Input, got, e.Targets[0])
		}
	}
}

func TestTrainMultiHead(t *testing.T) {
	t.Parallel()
	// Head 0 learns sign of x, head 1 learns sign of y — independent tasks
	// sharing a trunk, like the R/C heads of the OU policy.
	n := New(Config{InputDim: 2, Hidden: []int{12}, Heads: []int{2, 2}, Seed: 8})
	src := rng.New(101)
	var examples []Example
	for i := 0; i < 60; i++ {
		x, y := src.NormFloat64(), src.NormFloat64()
		t0, t1 := 0, 0
		if x > 0 {
			t0 = 1
		}
		if y > 0 {
			t1 = 1
		}
		examples = append(examples, Example{Input: []float64{x, y}, Targets: []int{t0, t1}})
	}
	n.Train(examples, TrainOptions{Epochs: 300, LearningRate: 0.1})
	correct := 0
	for _, e := range examples {
		cls := n.Classify(e.Input)
		if cls[0] == e.Targets[0] && cls[1] == e.Targets[1] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(examples)); acc < 0.9 {
		t.Fatalf("multi-head accuracy %v < 0.9", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	t.Parallel()
	build := func() (*Network, []Example) {
		n := New(Config{InputDim: 3, Hidden: []int{7}, Heads: []int{4}, Seed: 2})
		src := rng.New(55)
		var ex []Example
		for i := 0; i < 20; i++ {
			in := []float64{src.Float64(), src.Float64(), src.Float64()}
			ex = append(ex, Example{Input: in, Targets: []int{src.Intn(4)}})
		}
		return n, ex
	}
	n1, e1 := build()
	n2, e2 := build()
	n1.Train(e1, TrainOptions{Epochs: 50, Seed: 9})
	n2.Train(e2, TrainOptions{Epochs: 50, Seed: 9})
	p1, p2 := n1.Parameters(), n2.Parameters()
	for i := range p1 {
		if *p1[i] != *p2[i] {
			t.Fatalf("training not deterministic: param %d differs", i)
		}
	}
}

func TestTrainEmptyExamplesIsNoop(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 2, Hidden: []int{3}, Heads: []int{2}, Seed: 1})
	before := *n.Parameters()[0]
	stats := n.Train(nil, TrainOptions{})
	if stats.Epochs != 0 && stats.FinalLoss != 0 {
		t.Fatalf("unexpected stats for empty training set: %+v", stats)
	}
	if *n.Parameters()[0] != before {
		t.Fatal("empty training set mutated parameters")
	}
}

func TestLossEmptyIsZero(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 2, Heads: []int{2}, Seed: 1})
	if l := n.Loss(nil); l != 0 {
		t.Fatalf("Loss(nil) = %v", l)
	}
}

// TestBadExamplePanics pins that Loss, Train and Gradients reject a
// malformed example with the same "mlp:" message, not a runtime index
// error.
func TestBadExamplePanics(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 2, Heads: []int{2}, Seed: 1})
	cases := []Example{
		{Input: []float64{1}, Targets: []int{0}},       // wrong input dim
		{Input: []float64{1, 2}, Targets: []int{}},     // missing target
		{Input: []float64{1, 2}, Targets: []int{5}},    // target out of range
		{Input: []float64{1, 2}, Targets: []int{0, 1}}, // too many targets
	}
	calls := map[string]func([]Example){
		"Loss":      func(ex []Example) { n.Loss(ex) },
		"Train":     func(ex []Example) { n.Train(ex, TrainOptions{Epochs: 1}) },
		"Gradients": func(ex []Example) { n.Gradients(ex) },
	}
	for name, call := range calls {
		for i, e := range cases {
			func() {
				defer func() {
					r := recover()
					if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "mlp: ") {
						t.Errorf("%s case %d: panic %#v, want an \"mlp: \" message", name, i, r)
					}
				}()
				call([]Example{e})
			}()
		}
	}
}

func TestGradientsEmptyIsZero(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 2, Hidden: []int{3}, Heads: []int{2}, Seed: 1})
	g := n.Gradients(nil)
	if len(g) != n.NumParams() {
		t.Fatalf("Gradients(nil) has %d entries, want %d", len(g), n.NumParams())
	}
	for i, v := range g {
		if math.Float64bits(v) != 0 {
			t.Fatalf("Gradients(nil)[%d] = %v, want +0", i, v)
		}
	}
}

// TestTrainAllocFree pins that training allocates nothing per example or
// epoch: everything Train allocates is sized once per call, so its count is
// the same at 1 and 100 epochs and at 10 and 50 examples. Gradients
// likewise allocates the same for 1 and 50 examples.
func TestTrainAllocFree(t *testing.T) {
	cfg := Config{InputDim: 4, Hidden: []int{16}, Heads: []int{6, 6}, Seed: 1}
	src := rng.New(3)
	examples := make([]Example, 50)
	for i := range examples {
		examples[i] = Example{
			Input:   []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()},
			Targets: []int{src.Intn(6), src.Intn(6)},
		}
	}
	train := func(ex []Example, epochs int) float64 {
		n := New(cfg)
		return testing.AllocsPerRun(5, func() {
			n.Train(ex, TrainOptions{Epochs: epochs})
		})
	}
	if a, b := train(examples, 1), train(examples, 100); a != b {
		t.Errorf("Train allocates %v at 1 epoch, %v at 100", a, b)
	}
	if a, b := train(examples[:10], 20), train(examples, 20); a != b {
		t.Errorf("Train allocates %v for 10 examples, %v for 50", a, b)
	}
	n := New(cfg)
	grads := func(ex []Example) float64 {
		return testing.AllocsPerRun(5, func() { n.Gradients(ex) })
	}
	if a, b := grads(examples[:1]), grads(examples); a != b {
		t.Errorf("Gradients allocates %v for 1 example, %v for 50", a, b)
	}
}

func TestNoHiddenLayerNetwork(t *testing.T) {
	t.Parallel()
	// Linear softmax classifier (no trunk) must work: the paper's policy is
	// tiny and configurations like this must be expressible.
	n := New(Config{InputDim: 4, Heads: []int{6, 6}, Seed: 1})
	probs := n.Predict([]float64{1, 0, 0, 0})
	if len(probs) != 2 || len(probs[0]) != 6 {
		t.Fatalf("unexpected output shape")
	}
	var examples []Example
	src := rng.New(31)
	for i := 0; i < 30; i++ {
		in := make([]float64, 4)
		for j := range in {
			in[j] = src.Float64()
		}
		cls := 0
		if in[0] > 0.5 {
			cls = 3
		}
		examples = append(examples, Example{Input: in, Targets: []int{cls, 0}})
	}
	before := n.Loss(examples)
	n.Train(examples, TrainOptions{Epochs: 200})
	if after := n.Loss(examples); after >= before {
		t.Fatalf("linear model failed to learn: %v -> %v", before, after)
	}
}

func TestGradientCheckNoHidden(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 3, Heads: []int{2}, Seed: 4})
	examples := []Example{{Input: []float64{0.3, -0.2, 0.9}, Targets: []int{1}}}
	analytic := n.Gradients(examples)
	params := n.Parameters()
	const h = 1e-6
	for i, p := range params {
		orig := *p
		*p = orig + h
		up := n.Loss(examples)
		*p = orig - h
		down := n.Loss(examples)
		*p = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-analytic[i]) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("param %d: analytic %v numeric %v", i, analytic[i], numeric)
		}
	}
}

// TestConcurrentReadsShareNetwork pins that the read-only calls keep their
// buffers per call: goroutines predicting, classifying and computing losses
// and gradients on one network get the sequential answers, and `go test
// -race` sees no shared writes.
func TestConcurrentReadsShareNetwork(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 3, Hidden: []int{5, 4}, Heads: []int{3, 2}, Seed: 6})
	ex := []Example{{Input: []float64{0.2, -1, 0.5}, Targets: []int{2, 0}}}
	wantP, wantC := n.Predict(ex[0].Input), n.Classify(ex[0].Input)
	wantL, wantG := n.Loss(ex), n.Gradients(ex)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				p, c := n.Predict(ex[0].Input), n.Classify(ex[0].Input)
				if !slices.Equal(p[0], wantP[0]) || !slices.Equal(p[1], wantP[1]) || !slices.Equal(c, wantC) ||
					n.Loss(ex) != wantL || !slices.Equal(n.Gradients(ex), wantG) {
					t.Error("concurrent read-only call differs from the sequential one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
