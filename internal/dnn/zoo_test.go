package dnn

import (
	"reflect"
	"strings"
	"testing"
)

func TestAllWorkloadsValidate(t *testing.T) {
	t.Parallel()
	models := AllWorkloads()
	if len(models) != 9 {
		t.Fatalf("paper evaluates 9 workloads, zoo has %d", len(models))
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestWorkloadDatasetPairs(t *testing.T) {
	t.Parallel()
	want := map[string]string{
		"ResNet18":    "CIFAR-10",
		"VGG11":       "CIFAR-10",
		"GoogLeNet":   "CIFAR-10",
		"DenseNet121": "CIFAR-10",
		"ViT":         "CIFAR-10",
		"ResNet34":    "CIFAR-100",
		"VGG16":       "CIFAR-100",
		"ResNet50":    "TinyImageNet",
		"VGG19":       "TinyImageNet",
	}
	for _, m := range AllWorkloads() {
		if ds, ok := want[m.Name]; !ok || ds != m.Dataset.Name {
			t.Errorf("%s paired with %s, want %s", m.Name, m.Dataset.Name, want[m.Name])
		}
	}
}

func TestLayerCounts(t *testing.T) {
	t.Parallel()
	counts := map[string]int{
		// ResNet18: conv1 + 16 block convs + 3 downsample + fc = 21.
		"ResNet18": 21,
		// ResNet34: conv1 + 32 block convs + 3 downsample + fc = 37.
		"ResNet34": 37,
		// ResNet50: conv1 + 48 block convs + 4 downsample + fc = 54.
		"ResNet50": 54,
		// VGGn: (n−3) convs + 3 FC.
		"VGG11": 11,
		"VGG16": 16,
		"VGG19": 19,
		// GoogLeNet: stem + 9 inceptions × 6 + fc = 56.
		"GoogLeNet": 56,
		// DenseNet121: conv1 + 58×2 dense convs + 3 transitions + fc = 121.
		"DenseNet121": 121,
		// ViT: patch embed + 6 blocks × 4 + head = 26.
		"ViT": 26,
	}
	for _, m := range AllWorkloads() {
		if want := counts[m.Name]; len(m.Layers) != want {
			t.Errorf("%s has %d layers, want %d", m.Name, len(m.Layers), want)
		}
	}
}

func TestResNet18Structure(t *testing.T) {
	t.Parallel()
	m := NewResNet18()
	first := m.Layers[0]
	if first.Name != "conv1" || first.KernelH != 3 || first.OutChannels != 64 || first.InH != 32 {
		t.Fatalf("unexpected stem: %+v", first)
	}
	last := m.Layers[len(m.Layers)-1]
	if last.Type != FC || last.OutChannels != 10 || last.InChannels != 512 {
		t.Fatalf("unexpected head: %+v", last)
	}
	skips := 0
	for _, l := range m.Layers {
		if l.Skip {
			skips++
			if l.KernelH != 1 {
				t.Errorf("skip projection %s has kernel %d, want 1", l.Name, l.KernelH)
			}
		}
	}
	if skips != 3 {
		t.Fatalf("ResNet18 has %d skip projections, want 3", skips)
	}
}

func TestResNet18ParameterCount(t *testing.T) {
	t.Parallel()
	// CIFAR ResNet18 ≈ 11.2 M weights (conv + fc, no batch-norm params).
	m := NewResNet18()
	w := m.TotalWeights()
	if w < 10_500_000 || w > 11_500_000 {
		t.Fatalf("ResNet18 weights = %d, want ≈ 11.2M", w)
	}
}

func TestVGG16ParameterShape(t *testing.T) {
	t.Parallel()
	m := NewVGG16()
	// 13 convs then 3 FC; the first FC sees the flattened 1×1×512 map.
	fc1 := m.Layers[13]
	if fc1.Type != FC || fc1.InChannels != 512 || fc1.OutChannels != 4096 {
		t.Fatalf("VGG16 fc1 = %+v", fc1)
	}
	if m.Layers[15].OutChannels != 100 {
		t.Fatalf("VGG16 head classes = %d, want 100", m.Layers[15].OutChannels)
	}
}

func TestFeatureMapTracking(t *testing.T) {
	t.Parallel()
	m := NewVGG11()
	// After each pool the next conv must see the halved map.
	wantInH := []int{32, 16, 8, 8, 4, 4, 2, 2}
	convIdx := 0
	for _, l := range m.Layers {
		if l.Type != Conv {
			continue
		}
		if l.InH != wantInH[convIdx] {
			t.Errorf("VGG11 conv%d sees %d×%d map, want %d", convIdx+1, l.InH, l.InW, wantInH[convIdx])
		}
		convIdx++
	}
}

func TestResNet50Downsamples(t *testing.T) {
	t.Parallel()
	m := NewResNet50()
	skips := 0
	for _, l := range m.Layers {
		if l.Skip {
			skips++
		}
	}
	if skips != 4 {
		t.Fatalf("ResNet50 has %d projections, want 4 (every stage re-widens)", skips)
	}
	if m.Layers[0].InH != 64 {
		t.Fatalf("ResNet50 stem input %d, want 64 (TinyImageNet)", m.Layers[0].InH)
	}
}

func TestGoogLeNetInceptionWidths(t *testing.T) {
	t.Parallel()
	m := NewGoogLeNet()
	// Find the 5b 5×5 branch: in 48 out 128 on an 8×8 map.
	var found bool
	for _, l := range m.Layers {
		if l.Name == "5b.b3" {
			found = true
			if l.KernelH != 5 || l.InChannels != 48 || l.OutChannels != 128 {
				t.Fatalf("5b.b3 = %+v", l)
			}
		}
	}
	if !found {
		t.Fatal("5b.b3 not found")
	}
	head := m.Layers[len(m.Layers)-1]
	if head.InChannels != 1024 {
		t.Fatalf("GoogLeNet head in-channels %d, want 1024", head.InChannels)
	}
}

func TestDenseNetChannelGrowth(t *testing.T) {
	t.Parallel()
	m := NewDenseNet121()
	head := m.Layers[len(m.Layers)-1]
	if head.InChannels != 1024 {
		t.Fatalf("DenseNet121 head sees %d channels, want 1024", head.InChannels)
	}
	// First bottleneck of block 2 sees the post-transition width 128.
	for _, l := range m.Layers {
		if l.Name == "block2.0.bottleneck" {
			if l.InChannels != 128 {
				t.Fatalf("block2 entry channels %d, want 128", l.InChannels)
			}
			return
		}
	}
	t.Fatal("block2.0.bottleneck not found")
}

func TestViTShapes(t *testing.T) {
	t.Parallel()
	m := NewViT()
	patch := m.Layers[0]
	if patch.Stride != 4 || patch.OutH() != 8 {
		t.Fatalf("patch embed produces %d×%d grid, want 8×8", patch.OutH(), patch.OutW())
	}
	var qkv *Layer
	for i := range m.Layers {
		if m.Layers[i].Name == "block0.qkv" {
			qkv = &m.Layers[i]
		}
	}
	if qkv == nil || qkv.Type != Attention || qkv.OutChannels != 768 {
		t.Fatalf("qkv layer wrong: %+v", qkv)
	}
	if qkv.InputVectors() != 64 {
		t.Fatalf("qkv token count %d, want 64", qkv.InputVectors())
	}
}

func TestLayerDerivedQuantities(t *testing.T) {
	t.Parallel()
	l := Layer{Name: "x", Type: Conv, KernelH: 3, KernelW: 3,
		InChannels: 64, OutChannels: 128, InH: 16, InW: 16, Stride: 2}
	if l.Weights() != 3*3*64*128 {
		t.Fatalf("Weights = %d", l.Weights())
	}
	if l.OutH() != 8 || l.OutW() != 8 {
		t.Fatalf("OutH/W = %d/%d", l.OutH(), l.OutW())
	}
	if l.MACs() != l.Weights()*64 {
		t.Fatalf("MACs = %d", l.MACs())
	}
	if l.RowsRequired() != 3*3*64 {
		t.Fatalf("RowsRequired = %d", l.RowsRequired())
	}
	if l.InputVectors() != 64 {
		t.Fatalf("InputVectors = %d", l.InputVectors())
	}
}

func TestLayerValidateRejections(t *testing.T) {
	t.Parallel()
	good := Layer{Name: "ok", KernelH: 3, KernelW: 3, InChannels: 4,
		OutChannels: 4, InH: 8, InW: 8, Stride: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good layer rejected: %v", err)
	}
	mutations := []func(*Layer){
		func(l *Layer) { l.KernelH = 0 },
		func(l *Layer) { l.InChannels = 0 },
		func(l *Layer) { l.InH = 0 },
		func(l *Layer) { l.Stride = 0 },
		func(l *Layer) { l.WeightSparsity = 1 },
		func(l *Layer) { l.ActSparsity = -0.1 },
	}
	for i, mutate := range mutations {
		l := good
		mutate(&l)
		if err := l.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestModelValidateRejections(t *testing.T) {
	t.Parallel()
	m := NewVGG11()
	m.IdealAccuracy = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero ideal accuracy accepted")
	}
	empty := &Model{Name: "x", IdealAccuracy: 0.5}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestByName(t *testing.T) {
	t.Parallel()
	m, err := ByName("VGG11")
	if err != nil || m.Name != "VGG11" {
		t.Fatalf("ByName(VGG11) = %v, %v", m, err)
	}
	if _, err := ByName("AlexNet"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("ByName(AlexNet) err = %v", err)
	}
}

func TestLayerTypeString(t *testing.T) {
	t.Parallel()
	if Conv.String() != "conv" || FC.String() != "fc" || Attention.String() != "attn" {
		t.Fatal("LayerType strings wrong")
	}
	if LayerType(99).String() != "LayerType(99)" {
		t.Fatal("unknown LayerType string wrong")
	}
}

func TestMeanWeightSparsityZeroForUnpruned(t *testing.T) {
	t.Parallel()
	if s := NewResNet18().MeanWeightSparsity(); s != 0 {
		t.Fatalf("unpruned sparsity = %v", s)
	}
}

func TestTotalMACsPositive(t *testing.T) {
	t.Parallel()
	for _, m := range AllWorkloads() {
		if m.TotalMACs() <= 0 || m.TotalWeights() <= 0 {
			t.Errorf("%s has non-positive totals", m.Name)
		}
	}
}

// TestByNameMatchesZoo pins ByName to the zoo lists: every extended
// workload resolves by its own name to an identical fresh model, and an
// unknown name keeps its error text.
func TestByNameMatchesZoo(t *testing.T) {
	t.Parallel()
	for _, m := range ExtendedWorkloads() {
		got, err := ByName(m.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", m.Name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("ByName(%q) differs from the ExtendedWorkloads entry", m.Name)
		}
	}
	_, err := ByName("nope")
	const want = `dnn: unknown model "nope" (have [ResNet18 VGG11 GoogLeNet DenseNet121 ViT ResNet34 VGG16 ResNet50 VGG19 MobileNetV2])`
	if err == nil || err.Error() != want {
		t.Errorf("ByName(unknown) error = %v, want %s", err, want)
	}
}
