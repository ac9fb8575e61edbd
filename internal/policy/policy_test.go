package policy

import (
	"encoding/json"
	"math"
	"testing"

	"odin/internal/mlp"
	"odin/internal/ou"
	"odin/internal/rng"
)

func newTestPolicy(seed uint64) *Policy {
	return New(Config{Grid: ou.DefaultGrid(128), Seed: seed})
}

func validFeatures(idx int, t float64) Features {
	return Features{LayerIndex: idx, LayerCount: 20, Sparsity: 0.5, KernelSize: 3, Time: t}
}

func TestFeatureVectorNormalisation(t *testing.T) {
	t.Parallel()
	f := Features{LayerIndex: 19, LayerCount: 20, Sparsity: 0.6, KernelSize: 7, Time: 1e8}
	v := f.Vector()
	if len(v) != 4 {
		t.Fatalf("vector length %d, want 4", len(v))
	}
	if v[0] != 1 || v[1] != 0.6 || v[2] != 1 {
		t.Fatalf("unexpected normalisation: %v", v)
	}
	if math.Abs(v[3]-1) > 1e-12 {
		t.Fatalf("log-time at horizon should be 1, got %v", v[3])
	}
}

func TestFeatureVectorEdges(t *testing.T) {
	t.Parallel()
	f := Features{LayerIndex: 0, LayerCount: 1, Sparsity: 0, KernelSize: 1, Time: 0}
	v := f.Vector()
	if v[0] != 0 || v[3] != 0 {
		t.Fatalf("single-layer / t=0 encoding wrong: %v", v)
	}
	// Time past the horizon clamps.
	f.Time = 1e20
	if v := f.Vector(); v[3] > 1.25 {
		t.Fatalf("log-time not clamped: %v", v[3])
	}
}

func TestFeatureValidation(t *testing.T) {
	t.Parallel()
	bad := []Features{
		{LayerIndex: 0, LayerCount: 0, KernelSize: 1},
		{LayerIndex: 5, LayerCount: 5, KernelSize: 1},
		{LayerIndex: -1, LayerCount: 5, KernelSize: 1},
		{LayerIndex: 0, LayerCount: 5, Sparsity: 1, KernelSize: 1},
		{LayerIndex: 0, LayerCount: 5, KernelSize: 0},
		{LayerIndex: 0, LayerCount: 5, KernelSize: 1, Time: -1},
		{LayerIndex: 0, LayerCount: 5, KernelSize: 1, Time: math.NaN()},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad features %d accepted: %+v", i, f)
		}
	}
	if err := validFeatures(3, 100).Validate(); err != nil {
		t.Fatalf("good features rejected: %v", err)
	}
}

func TestVectorPanicsOnInvalid(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Vector on invalid features did not panic")
		}
	}()
	Features{LayerCount: 0, KernelSize: 1}.Vector()
}

func TestPredictOnGrid(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(1)
	g := p.Grid()
	for _, tt := range []float64{0, 1e2, 1e6} {
		s := p.Predict(validFeatures(4, tt))
		if _, _, ok := g.IndexOf(s); !ok {
			t.Fatalf("prediction %v off grid", s)
		}
	}
}

// TestPredictAllocBudget pins Predict at no more than 7 allocations per
// call (6 today): the buffers of a fresh Workspace, which each call sizes
// for itself so concurrent Predicts share nothing.
func TestPredictAllocBudget(t *testing.T) {
	p := newTestPolicy(1)
	f := validFeatures(4, 1e3)
	if avg := testing.AllocsPerRun(500, func() { _ = p.Predict(f) }); avg > 7 {
		t.Fatalf("Predict allocates %v per call, want at most 7", avg)
	}
}

// TestPredictWithAllocFree pins line 5's path: PredictWith through a
// reused Workspace allocates nothing.
func TestPredictWithAllocFree(t *testing.T) {
	p := newTestPolicy(1)
	ws := p.NewWorkspace()
	f := validFeatures(4, 1e3)
	if avg := testing.AllocsPerRun(1000, func() {
		f.Time++
		_ = p.PredictWith(ws, f)
	}); avg != 0 {
		t.Fatalf("PredictWith allocates %v per call, want 0", avg)
	}
}

// TestPredictWithMatchesPredict reuses one Workspace while the policy
// trains and after UnmarshalJSON swaps in a network with a deeper trunk:
// every PredictWith must equal a fresh Predict.
func TestPredictWithMatchesPredict(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(3)
	ws := p.NewWorkspace()
	same := func(stage string) {
		t.Helper()
		for i := 0; i < 20; i++ {
			f := validFeatures(i, math.Pow(10, float64(i)/2.5))
			if got, want := p.PredictWith(ws, f), p.Predict(f); got != want {
				t.Fatalf("%s: PredictWith(%+v) = %v, Predict = %v", stage, f, got, want)
			}
		}
	}
	same("fresh")
	g := p.Grid()
	var ex []Example
	for i := 0; i < 20; i++ {
		ex = append(ex, Example{F: validFeatures(i, float64(i)*1e3), Target: g.SizeAt(i%6, 5-i%6)})
	}
	if _, err := p.Train(ex, mlp.TrainOptions{Epochs: 20}); err != nil {
		t.Fatal(err)
	}
	same("after Train")
	data, err := json.Marshal(New(Config{Grid: g, Hidden: []int{5, 3}, Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, p); err != nil {
		t.Fatal(err)
	}
	same("after UnmarshalJSON")
}

func TestProbabilitiesNormalised(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(2)
	r, c := p.Probabilities(validFeatures(2, 50))
	if len(r) != 6 || len(c) != 6 {
		t.Fatalf("head sizes %d/%d, want 6", len(r), len(c))
	}
	var sr, sc float64
	for i := range r {
		sr += r[i]
		sc += c[i]
	}
	if math.Abs(sr-1) > 1e-9 || math.Abs(sc-1) > 1e-9 {
		t.Fatalf("probabilities not normalised: %v %v", sr, sc)
	}
}

func TestTrainLearnsMapping(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(3)
	g := p.Grid()
	// Synthetic ground truth: early layers → 16×8, late layers → 32×32.
	var examples []Example
	for idx := 0; idx < 20; idx++ {
		target := g.SizeAt(2, 1) // 16×8
		if idx >= 10 {
			target = g.SizeAt(3, 3) // 32×32
		}
		examples = append(examples, Example{F: validFeatures(idx, 10), Target: target})
	}
	if before := p.Agreement(examples); before > 0.9 {
		t.Fatalf("untrained policy suspiciously good: %v", before)
	}
	if _, err := p.Train(examples, mlp.TrainOptions{Epochs: 300, LearningRate: 0.2}); err != nil {
		t.Fatal(err)
	}
	if after := p.Agreement(examples); after < 0.9 {
		t.Fatalf("policy failed to learn synthetic mapping: agreement %v", after)
	}
}

func TestTrainDefaultEpochsIs100(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(4)
	examples := []Example{{F: validFeatures(1, 1), Target: p.Grid().SizeAt(1, 1)}}
	stats, err := p.Train(examples, mlp.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs != 100 {
		t.Fatalf("default epochs %d, want the paper's 100", stats.Epochs)
	}
}

func TestTrainRejectsOffGridTarget(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(5)
	_, err := p.Train([]Example{{F: validFeatures(0, 0), Target: ou.Size{R: 9, C: 8}}}, mlp.TrainOptions{})
	if err == nil {
		t.Fatal("off-grid target accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(6)
	c := p.Clone()
	examples := []Example{
		{F: validFeatures(0, 1), Target: p.Grid().SizeAt(0, 0)},
		{F: validFeatures(10, 1), Target: p.Grid().SizeAt(5, 5)},
	}
	if _, err := c.Train(examples, mlp.TrainOptions{Epochs: 200, LearningRate: 0.3}); err != nil {
		t.Fatal(err)
	}
	// Training the clone must not change the original's predictions.
	f := validFeatures(10, 1)
	if p.Predict(f) != newTestPolicy(6).Predict(f) {
		t.Fatal("training a clone mutated the original policy")
	}
}

func TestTimeFeatureInfluencesPrediction(t *testing.T) {
	t.Parallel()
	// A policy trained to shrink OUs over time must produce different
	// predictions at t0 vs the horizon — i.e. Φ₄ is actually wired in.
	p := newTestPolicy(7)
	g := p.Grid()
	var examples []Example
	src := rng.New(11)
	for i := 0; i < 200; i++ {
		idx := src.Intn(20)
		early := src.Bernoulli(0.5)
		tt := 1.0
		target := g.SizeAt(3, 3)
		if !early {
			tt = 1e7
			target = g.SizeAt(0, 0)
		}
		examples = append(examples, Example{F: validFeatures(idx, tt), Target: target})
	}
	if _, err := p.Train(examples, mlp.TrainOptions{Epochs: 200, LearningRate: 0.2}); err != nil {
		t.Fatal(err)
	}
	if p.Predict(validFeatures(5, 1)) == p.Predict(validFeatures(5, 1e7)) {
		t.Fatal("time feature ignored by trained policy")
	}
}

func TestNumParamsSmall(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(8)
	// Tiny policy: 4→16 trunk + two 6-way heads = (64+16) + 2·(96+6) = 284.
	if got := p.NumParams(); got != 284 {
		t.Fatalf("NumParams = %d, want 284", got)
	}
}

func TestBufferLifecycle(t *testing.T) {
	t.Parallel()
	b := NewBuffer(3)
	e := Example{F: validFeatures(0, 1), Target: ou.Size{R: 4, C: 4}}
	if b.Add(e) || b.Add(e) {
		t.Fatal("buffer reported full too early")
	}
	if !b.Add(e) {
		t.Fatal("buffer should be full at capacity")
	}
	if b.Len() != 3 || !b.Full() || b.Cap() != 3 {
		t.Fatalf("buffer state wrong: len=%d", b.Len())
	}
	// Overflow is dropped.
	b.Add(e)
	if b.Len() != 3 {
		t.Fatalf("overflow grew the buffer to %d", b.Len())
	}
	drained := b.Drain()
	if len(drained) != 3 || b.Len() != 0 || b.Full() {
		t.Fatal("drain did not reset the buffer")
	}
}

func TestBufferPanicsOnBadCapacity(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewBuffer(0)
}

func TestAgreementEmpty(t *testing.T) {
	t.Parallel()
	if newTestPolicy(9).Agreement(nil) != 0 {
		t.Fatal("agreement on empty set should be 0")
	}
}

func TestConfidenceBounds(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(21)
	f := validFeatures(3, 100)
	c := p.Confidence(f)
	// Two 6-way heads: confidence ∈ [1/36, 1].
	if c < 1.0/36-1e-12 || c > 1 {
		t.Fatalf("confidence %v out of [1/36, 1]", c)
	}
}

func TestConfidenceRisesWithTraining(t *testing.T) {
	t.Parallel()
	p := newTestPolicy(22)
	g := p.Grid()
	f := validFeatures(3, 100)
	before := p.Confidence(f)
	// Hammer one consistent mapping.
	examples := make([]Example, 40)
	for i := range examples {
		examples[i] = Example{F: f, Target: g.SizeAt(2, 1)}
	}
	if _, err := p.Train(examples, mlp.TrainOptions{Epochs: 300, LearningRate: 0.2}); err != nil {
		t.Fatal(err)
	}
	after := p.Confidence(f)
	if after <= before {
		t.Fatalf("confidence did not rise with training: %v -> %v", before, after)
	}
	if after < 0.8 {
		t.Fatalf("confidence %v too low after consistent training", after)
	}
}
