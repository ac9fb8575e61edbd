// Package dnn describes DNN workloads at the granularity Odin consumes:
// ordered lists of weight layers with their kernel sizes, channel counts,
// feature-map dimensions and (after pruning, see internal/sparsity) weight
// and activation sparsity. Weight *values* never matter to the analytical
// models, so layers carry shape statistics only; synthetic weight tensors
// for the reference crossbar demos are generated on demand from
// deterministic seeds.
//
// The zoo (zoo.go) provides layer-accurate ResNet18/34/50, VGG11/16/19,
// GoogLeNet, DenseNet121 and a compact ViT — the nine workload/dataset
// pairs of the paper's evaluation (§V.A).
package dnn

import "fmt"

// LayerType distinguishes the structural role of a weight layer.
type LayerType int

const (
	// Conv is a standard 2-D convolution.
	Conv LayerType = iota
	// FC is a fully connected (linear) layer, including transformer
	// projections.
	FC
	// Attention marks the fused QKV projection of a transformer block; it is
	// mapped like an FC layer but tagged for feature extraction.
	Attention
)

// String returns a short human-readable label.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	case Attention:
		return "attn"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// Layer is one weight layer of a DNN.
type Layer struct {
	Name string
	Type LayerType

	KernelH, KernelW int // 1×1 for FC/Attention
	InChannels       int
	OutChannels      int
	InH, InW         int // input feature-map spatial size (1×1 for FC)
	Stride           int

	// Groups splits the convolution into independent channel groups
	// (grouped/depthwise convolutions; 0 or 1 = standard). A depthwise
	// convolution has Groups == InChannels == OutChannels.
	Groups int

	// Skip marks residual-shortcut projection convolutions; they appear in
	// the paper's layer-wise plots (Fig. 3 counts "including skip
	// connections").
	Skip bool

	// WeightSparsity and ActSparsity are filled by internal/sparsity's
	// pruning pass; both are fractions of zeros in [0,1).
	WeightSparsity float64
	ActSparsity    float64
}

// groups returns the effective group count (≥ 1).
func (l Layer) groups() int {
	if l.Groups < 1 {
		return 1
	}
	return l.Groups
}

// GroupCount is the exported effective group count (≥ 1).
func (l Layer) GroupCount() int { return l.groups() }

// Weights returns the number of weight parameters in the layer.
func (l Layer) Weights() int {
	return l.KernelH * l.KernelW * (l.InChannels / l.groups()) * l.OutChannels
}

// OutH returns the output feature-map height ("same" padding for convs).
func (l Layer) OutH() int { return outDim(l.InH, l.Stride) }

// OutW returns the output feature-map width.
func (l Layer) OutW() int { return outDim(l.InW, l.Stride) }

func outDim(in, stride int) int {
	if stride <= 1 {
		return in
	}
	return (in + stride - 1) / stride
}

// MACs returns multiply-accumulate operations for one inference.
func (l Layer) MACs() int {
	return l.Weights() * l.OutH() * l.OutW()
}

// InputVectors returns how many MVM input vectors (im2col patches) one
// inference pushes through the layer — the activation-traffic figure the NoC
// model consumes.
func (l *Layer) InputVectors() int { return l.OutH() * l.OutW() }

// RowsRequired returns the crossbar rows an im2col mapping of the layer
// needs per group: one row per weight in a filter.
func (l *Layer) RowsRequired() int {
	return l.KernelH * l.KernelW * (l.InChannels / l.groups())
}

// Validate reports structural problems with the layer definition.
func (l Layer) Validate() error {
	switch {
	case l.KernelH < 1 || l.KernelW < 1:
		return fmt.Errorf("dnn: layer %q has invalid kernel %dx%d", l.Name, l.KernelH, l.KernelW)
	case l.InChannels < 1 || l.OutChannels < 1:
		return fmt.Errorf("dnn: layer %q has invalid channels %d->%d", l.Name, l.InChannels, l.OutChannels)
	case l.InH < 1 || l.InW < 1:
		return fmt.Errorf("dnn: layer %q has invalid input map %dx%d", l.Name, l.InH, l.InW)
	case l.Stride < 1:
		return fmt.Errorf("dnn: layer %q has invalid stride %d", l.Name, l.Stride)
	case l.Groups < 0:
		return fmt.Errorf("dnn: layer %q has negative group count %d", l.Name, l.Groups)
	case l.groups() > 1 && (l.InChannels%l.groups() != 0 || l.OutChannels%l.groups() != 0):
		return fmt.Errorf("dnn: layer %q channels %d->%d not divisible into %d groups",
			l.Name, l.InChannels, l.OutChannels, l.groups())
	case l.WeightSparsity < 0 || l.WeightSparsity >= 1:
		return fmt.Errorf("dnn: layer %q weight sparsity %v out of [0,1)", l.Name, l.WeightSparsity)
	case l.ActSparsity < 0 || l.ActSparsity >= 1:
		return fmt.Errorf("dnn: layer %q activation sparsity %v out of [0,1)", l.Name, l.ActSparsity)
	}
	return nil
}

// Model is an ordered stack of weight layers bound to a dataset.
type Model struct {
	Name    string
	Dataset Dataset
	Layers  []Layer

	// IdealAccuracy is the fault-free inference accuracy (fraction in (0,1])
	// of the pruned model, used as the Fig. 7 reference line.
	IdealAccuracy float64
}

// Validate checks the whole model, including inter-layer consistency of
// feature-map shapes where adjacency is meaningful.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("dnn: model has no name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %q has no layers", m.Name)
	}
	if m.IdealAccuracy <= 0 || m.IdealAccuracy > 1 {
		return fmt.Errorf("dnn: model %q ideal accuracy %v out of (0,1]", m.Name, m.IdealAccuracy)
	}
	for i := range m.Layers {
		if err := m.Layers[i].Validate(); err != nil {
			return fmt.Errorf("dnn: model %q layer %d: %w", m.Name, i, err)
		}
	}
	return nil
}

// TotalWeights sums weight parameters over all layers.
func (m *Model) TotalWeights() int {
	total := 0
	for i := range m.Layers {
		total += m.Layers[i].Weights()
	}
	return total
}

// TotalMACs sums MACs over all layers.
func (m *Model) TotalMACs() int {
	total := 0
	for i := range m.Layers {
		total += m.Layers[i].MACs()
	}
	return total
}

// MeanWeightSparsity returns the weight-weighted average sparsity.
func (m *Model) MeanWeightSparsity() float64 {
	var num, den float64
	for i := range m.Layers {
		w := float64(m.Layers[i].Weights())
		num += w * m.Layers[i].WeightSparsity
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Dataset describes an image-classification dataset at the level the
// simulator needs.
type Dataset struct {
	Name     string
	InputH   int
	InputW   int
	Channels int
	Classes  int
}

// The three datasets of the paper's evaluation.
var (
	CIFAR10      = Dataset{Name: "CIFAR-10", InputH: 32, InputW: 32, Channels: 3, Classes: 10}
	CIFAR100     = Dataset{Name: "CIFAR-100", InputH: 32, InputW: 32, Channels: 3, Classes: 100}
	TinyImageNet = Dataset{Name: "TinyImageNet", InputH: 64, InputW: 64, Channels: 3, Classes: 200}
)
