package sparsity

import (
	"testing"
	"testing/quick"

	"odin/internal/dnn"
)

func TestDefaultConfigValid(t *testing.T) {
	t.Parallel()
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	mutations := []func(*Config){
		func(c *Config) { c.BaseSparsity = 1 },
		func(c *Config) { c.BaseSparsity = -0.1 },
		func(c *Config) { c.Cluster = 1.5 },
		func(c *Config) { c.Jitter = 0.6 },
		func(c *Config) { c.SizeSlope = -1 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPruneFillsAllLayers(t *testing.T) {
	t.Parallel()
	m := dnn.NewResNet18()
	if err := Prune(m, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Layers {
		if l.WeightSparsity < 0.05 || l.WeightSparsity > 0.95 {
			t.Errorf("%s weight sparsity %v out of schedule bounds", l.Name, l.WeightSparsity)
		}
		if l.ActSparsity < 0.05 || l.ActSparsity > 0.95 {
			t.Errorf("%s activation sparsity %v out of bounds", l.Name, l.ActSparsity)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("pruned model invalid: %v", err)
	}
}

func TestPruneDeterministic(t *testing.T) {
	t.Parallel()
	a, b := dnn.NewVGG11(), dnn.NewVGG11()
	cfg := DefaultConfig()
	if err := Prune(a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Prune(b, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range a.Layers {
		if a.Layers[i].WeightSparsity != b.Layers[i].WeightSparsity {
			t.Fatalf("layer %d sparsity differs between identical runs", i)
		}
	}
}

func TestPruneSeedChangesDraws(t *testing.T) {
	t.Parallel()
	a, b := dnn.NewVGG11(), dnn.NewVGG11()
	cfgA, cfgB := DefaultConfig(), DefaultConfig()
	cfgB.Seed = 99
	_ = Prune(a, cfgA)
	_ = Prune(b, cfgB)
	same := true
	for i := range a.Layers {
		if a.Layers[i].WeightSparsity != b.Layers[i].WeightSparsity {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestStemPrunedGently(t *testing.T) {
	t.Parallel()
	m := dnn.NewResNet18()
	_ = Prune(m, DefaultConfig())
	stem := m.Layers[0].WeightSparsity
	// Mid-network 3×3 convs should be markedly sparser than the stem.
	var midSum float64
	var midN int
	for i, l := range m.Layers {
		if i > 4 && i < len(m.Layers)-1 && !l.Skip && l.KernelH == 3 {
			midSum += l.WeightSparsity
			midN++
		}
	}
	if midN == 0 {
		t.Fatal("no mid-network layers found")
	}
	if mid := midSum / float64(midN); stem >= mid {
		t.Fatalf("stem sparsity %v not below mid-network mean %v", stem, mid)
	}
}

func TestPruneRejectsBadConfig(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.BaseSparsity = 2
	if err := Prune(dnn.NewVGG11(), cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestSegmentZeroFractionBasics(t *testing.T) {
	t.Parallel()
	p := Profile{Weight: 0.6, Cluster: 0.85}
	f := p.SegmentZeroFraction(16)
	if f <= 0 || f >= 1 {
		t.Fatalf("fraction %v out of (0,1)", f)
	}
	// Structured floor: at least Cluster·Weight is always skippable.
	if f < 0.85*0.6 {
		t.Fatalf("fraction %v below structured floor %v", f, 0.85*0.6)
	}
}

func TestSegmentZeroFractionMonotoneInWidth(t *testing.T) {
	t.Parallel()
	p := Profile{Weight: 0.7, Cluster: 0.5}
	prev := 2.0
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		f := p.SegmentZeroFraction(w)
		if f > prev {
			t.Fatalf("fraction increased with width %d: %v > %v", w, f, prev)
		}
		prev = f
	}
}

func TestSegmentZeroFractionQuickProperties(t *testing.T) {
	t.Parallel()
	f := func(wRaw uint8, sRaw, cRaw uint16) bool {
		width := int(wRaw%128) + 1
		p := Profile{
			Weight:  float64(sRaw) / 65536, // [0,1)
			Cluster: float64(cRaw) / 65535, // [0,1]
		}
		v := p.SegmentZeroFraction(width)
		if v < 0 || v >= 1 {
			return false
		}
		// Wider segments can never be easier to skip.
		return p.SegmentZeroFraction(width+1) <= v+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentZeroFractionDenseLayer(t *testing.T) {
	t.Parallel()
	p := Profile{Weight: 0, Cluster: 0.85}
	if p.SegmentZeroFraction(8) != 0 {
		t.Fatal("dense layer should have no skippable segments")
	}
}

func TestSegmentZeroFractionFullSparseClamped(t *testing.T) {
	t.Parallel()
	p := Profile{Weight: 0.999999, Cluster: 1}
	if f := p.SegmentZeroFraction(4); f >= 1 {
		t.Fatalf("fraction %v must stay below 1", f)
	}
}

func TestSegmentZeroFractionPanicsOnBadWidth(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("width 0 did not panic")
		}
	}()
	Profile{Weight: 0.5}.SegmentZeroFraction(0)
}

func TestProfileForUsesLayerSparsity(t *testing.T) {
	t.Parallel()
	m := dnn.NewVGG11()
	cfg := DefaultConfig()
	_ = Prune(m, cfg)
	p := ProfileFor(m.Layers[3], cfg)
	if p.Weight != m.Layers[3].WeightSparsity || p.Cluster != cfg.Cluster {
		t.Fatalf("ProfileFor mismatch: %+v", p)
	}
}

func TestEffectiveRowSkipNarrowBeatsWide(t *testing.T) {
	t.Parallel()
	m := dnn.NewVGG11()
	cfg := DefaultConfig()
	_ = Prune(m, cfg)
	p := ProfileFor(m.Layers[5], cfg)
	if p.SegmentZeroFraction(4) < p.SegmentZeroFraction(64) {
		t.Fatal("narrow segments should skip at least as much as wide ones")
	}
}

func TestActivationSparsityTransformerLower(t *testing.T) {
	t.Parallel()
	vit := dnn.NewViT()
	cfg := DefaultConfig()
	_ = Prune(vit, cfg)
	var tokenSum, tokenN float64
	for _, l := range vit.Layers {
		if l.Type == dnn.Attention {
			tokenSum += l.ActSparsity
			tokenN++
		}
	}
	resnet := dnn.NewResNet18()
	_ = Prune(resnet, cfg)
	var convSum, convN float64
	for _, l := range resnet.Layers {
		if l.Type == dnn.Conv {
			convSum += l.ActSparsity
			convN++
		}
	}
	if tokenSum/tokenN >= convSum/convN {
		t.Fatalf("attention activations (%v) should be denser than ReLU convs (%v)",
			tokenSum/tokenN, convSum/convN)
	}
}

func TestAllWorkloadsPrunable(t *testing.T) {
	t.Parallel()
	for _, m := range dnn.AllWorkloads() {
		if err := Prune(m, DefaultConfig()); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if s := m.MeanWeightSparsity(); s < 0.3 || s > 0.95 {
			t.Errorf("%s mean sparsity %v implausible for 'highly sparse' models", m.Name, s)
		}
	}
}
