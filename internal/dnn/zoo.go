package dnn

import "fmt"

// builder accumulates layers while tracking the running feature-map shape,
// so topology definitions below read like the architectures they describe.
type builder struct {
	m       *Model
	h, w, c int
}

func newBuilder(name string, ds Dataset, idealAccuracy float64) *builder {
	return &builder{
		m: &Model{Name: name, Dataset: ds, IdealAccuracy: idealAccuracy},
		h: ds.InputH, w: ds.InputW, c: ds.Channels,
	}
}

// conv appends a k×k convolution producing out channels and advances the
// tracked shape. It returns the layer index for cross-referencing.
func (b *builder) conv(name string, k, out, stride int) int {
	return b.convFrom(name, k, b.c, out, stride, false)
}

// convFrom appends a convolution with an explicit input-channel count —
// used for residual shortcuts, which branch from the block input.
func (b *builder) convFrom(name string, k, in, out, stride int, skip bool) int {
	l := Layer{
		Name: name, Type: Conv,
		KernelH: k, KernelW: k,
		InChannels: in, OutChannels: out,
		InH: b.h, InW: b.w,
		Stride: stride, Skip: skip,
	}
	b.m.Layers = append(b.m.Layers, l)
	if !skip { // shortcut convs do not advance the main path
		b.h, b.w = l.OutH(), l.OutW()
		b.c = out
	}
	return len(b.m.Layers) - 1
}

// pool downsamples the tracked spatial shape (max/avg pools carry no
// weights, so no layer is appended).
func (b *builder) pool(stride int) {
	b.h = outDim(b.h, stride)
	b.w = outDim(b.w, stride)
}

// globalPool collapses the spatial dimensions to 1×1.
func (b *builder) globalPool() { b.h, b.w = 1, 1 }

// fc appends a fully connected layer over the flattened features.
func (b *builder) fc(name string, out int) {
	in := b.c * b.h * b.w
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Type: FC,
		KernelH: 1, KernelW: 1,
		InChannels: in, OutChannels: out,
		InH: 1, InW: 1, Stride: 1,
	})
	b.c, b.h, b.w = out, 1, 1
}

// tokenLayer appends a per-token linear layer (transformer blocks): kernel
// 1×1 applied across the token grid, so InputVectors equals the token count.
func (b *builder) tokenLayer(name string, typ LayerType, in, out int) {
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Type: typ,
		KernelH: 1, KernelW: 1,
		InChannels: in, OutChannels: out,
		InH: b.h, InW: b.w, Stride: 1,
	})
	b.c = out
}

func (b *builder) build() *Model {
	if err := b.m.Validate(); err != nil {
		panic(fmt.Sprintf("dnn: zoo bug: %v", err))
	}
	return b.m
}

// basicStage appends a ResNet basic-block stage: blocks×2 3×3 convs, with a
// stride-2 first block and a 1×1 projection shortcut when shape changes.
func (b *builder) basicStage(prefix string, blocks, out, firstStride int) {
	for blk := 0; blk < blocks; blk++ {
		stride := 1
		if blk == 0 {
			stride = firstStride
		}
		in := b.c
		needSkip := stride != 1 || in != out
		b.conv(fmt.Sprintf("%s.%d.conv1", prefix, blk), 3, out, stride)
		b.conv(fmt.Sprintf("%s.%d.conv2", prefix, blk), 3, out, 1)
		if needSkip {
			b.convFrom(fmt.Sprintf("%s.%d.downsample", prefix, blk), 1, in, out, stride, true)
		}
	}
}

// bottleneckStage appends a ResNet bottleneck stage (1×1, 3×3, 1×1 convs
// with 4× expansion).
func (b *builder) bottleneckStage(prefix string, blocks, width, firstStride int) {
	out := width * 4
	for blk := 0; blk < blocks; blk++ {
		stride := 1
		if blk == 0 {
			stride = firstStride
		}
		in := b.c
		needSkip := stride != 1 || in != out
		b.conv(fmt.Sprintf("%s.%d.conv1", prefix, blk), 1, width, 1)
		b.conv(fmt.Sprintf("%s.%d.conv2", prefix, blk), 3, width, stride)
		b.conv(fmt.Sprintf("%s.%d.conv3", prefix, blk), 1, out, 1)
		if needSkip {
			b.convFrom(fmt.Sprintf("%s.%d.downsample", prefix, blk), 1, in, out, stride, true)
		}
	}
}

// NewResNet18 builds the CIFAR-style ResNet18 evaluated on CIFAR-10.
func NewResNet18() *Model {
	b := newBuilder("ResNet18", CIFAR10, 0.945)
	b.conv("conv1", 3, 64, 1)
	b.basicStage("layer1", 2, 64, 1)
	b.basicStage("layer2", 2, 128, 2)
	b.basicStage("layer3", 2, 256, 2)
	b.basicStage("layer4", 2, 512, 2)
	b.globalPool()
	b.fc("fc", b.m.Dataset.Classes)
	return b.build()
}

// NewResNet34 builds the CIFAR-style ResNet34 evaluated on CIFAR-100.
func NewResNet34() *Model {
	b := newBuilder("ResNet34", CIFAR100, 0.773)
	b.conv("conv1", 3, 64, 1)
	b.basicStage("layer1", 3, 64, 1)
	b.basicStage("layer2", 4, 128, 2)
	b.basicStage("layer3", 6, 256, 2)
	b.basicStage("layer4", 3, 512, 2)
	b.globalPool()
	b.fc("fc", b.m.Dataset.Classes)
	return b.build()
}

// NewResNet50 builds the bottleneck ResNet50 evaluated on TinyImageNet.
func NewResNet50() *Model {
	b := newBuilder("ResNet50", TinyImageNet, 0.652)
	b.conv("conv1", 3, 64, 1)
	b.pool(2) // 64→32 stem max-pool for the 64×64 input
	b.bottleneckStage("layer1", 3, 64, 1)
	b.bottleneckStage("layer2", 4, 128, 2)
	b.bottleneckStage("layer3", 6, 256, 2)
	b.bottleneckStage("layer4", 3, 512, 2)
	b.globalPool()
	b.fc("fc", b.m.Dataset.Classes)
	return b.build()
}

// vgg builds a VGG variant from its feature configuration ("M" entries are
// max-pools) followed by the standard three-layer classifier.
func vgg(name string, ds Dataset, idealAccuracy float64, features []int) *Model {
	b := newBuilder(name, ds, idealAccuracy)
	convIdx := 0
	for _, f := range features {
		if f == poolMarker {
			b.pool(2)
			continue
		}
		convIdx++
		b.conv(fmt.Sprintf("conv%d", convIdx), 3, f, 1)
	}
	b.fc("fc1", 4096)
	b.fc("fc2", 4096)
	b.fc("fc3", ds.Classes)
	return b.build()
}

const poolMarker = -1

// NewVGG11 builds VGG11 on CIFAR-10 (8 convs + 3 FC = 11 weight layers).
func NewVGG11() *Model {
	return vgg("VGG11", CIFAR10, 0.921, []int{
		64, poolMarker,
		128, poolMarker,
		256, 256, poolMarker,
		512, 512, poolMarker,
		512, 512, poolMarker,
	})
}

// NewVGG16 builds VGG16 on CIFAR-100 (13 convs + 3 FC).
func NewVGG16() *Model {
	return vgg("VGG16", CIFAR100, 0.741, []int{
		64, 64, poolMarker,
		128, 128, poolMarker,
		256, 256, 256, poolMarker,
		512, 512, 512, poolMarker,
		512, 512, 512, poolMarker,
	})
}

// NewVGG19 builds VGG19 on TinyImageNet (16 convs + 3 FC).
func NewVGG19() *Model {
	return vgg("VGG19", TinyImageNet, 0.621, []int{
		64, 64, poolMarker,
		128, 128, poolMarker,
		256, 256, 256, 256, poolMarker,
		512, 512, 512, 512, poolMarker,
		512, 512, 512, 512, poolMarker,
	})
}

// inception appends one GoogLeNet inception module (six convolutions) and
// fixes the tracked channel count to the concatenated branch output.
func (b *builder) inception(name string, b1, b2red, b2, b3red, b3, b4 int) {
	in := b.c
	b.convFrom(name+".b1", 1, in, b1, 1, false)
	// The main-path bookkeeping above advanced b.c; the remaining branches
	// also read the module input, so they use convFrom with `in` and the
	// skip flag semantics (no main-path advance) except the last, after
	// which we set the concatenated width explicitly.
	b.convFrom(name+".b2red", 1, in, b2red, 1, true)
	b.convFrom(name+".b2", 3, b2red, b2, 1, true)
	b.convFrom(name+".b3red", 1, in, b3red, 1, true)
	b.convFrom(name+".b3", 5, b3red, b3, 1, true)
	b.convFrom(name+".b4proj", 1, in, b4, 1, true)
	b.c = b1 + b2 + b3 + b4
}

// NewGoogLeNet builds the CIFAR-adapted GoogLeNet (stem conv + 9 inception
// modules + classifier; 56 weight layers).
func NewGoogLeNet() *Model {
	b := newBuilder("GoogLeNet", CIFAR10, 0.948)
	b.conv("stem", 3, 192, 1)
	b.inception("3a", 64, 96, 128, 16, 32, 32)
	b.inception("3b", 128, 128, 192, 32, 96, 64)
	b.pool(2)
	b.inception("4a", 192, 96, 208, 16, 48, 64)
	b.inception("4b", 160, 112, 224, 24, 64, 64)
	b.inception("4c", 128, 128, 256, 24, 64, 64)
	b.inception("4d", 112, 144, 288, 32, 64, 64)
	b.inception("4e", 256, 160, 320, 32, 128, 128)
	b.pool(2)
	b.inception("5a", 256, 160, 320, 32, 128, 128)
	b.inception("5b", 384, 192, 384, 48, 128, 128)
	b.globalPool()
	b.fc("fc", b.m.Dataset.Classes)
	return b.build()
}

// denseBlock appends `layers` DenseNet layers (1×1 bottleneck to 4·growth,
// then 3×3 producing `growth` channels, concatenated onto the input).
func (b *builder) denseBlock(prefix string, layers, growth int) {
	for i := 0; i < layers; i++ {
		in := b.c
		b.convFrom(fmt.Sprintf("%s.%d.bottleneck", prefix, i), 1, in, 4*growth, 1, true)
		b.convFrom(fmt.Sprintf("%s.%d.conv", prefix, i), 3, 4*growth, growth, 1, true)
		b.c = in + growth // concatenation
	}
}

// NewDenseNet121 builds DenseNet-121 on CIFAR-10 (121 weight layers).
func NewDenseNet121() *Model {
	const growth = 32
	b := newBuilder("DenseNet121", CIFAR10, 0.951)
	b.conv("conv1", 3, 2*growth, 1)
	for i, layers := range []int{6, 12, 24, 16} {
		b.denseBlock(fmt.Sprintf("block%d", i+1), layers, growth)
		if i < 3 { // transition: 1×1 conv halving channels + 2× avg-pool
			b.conv(fmt.Sprintf("trans%d", i+1), 1, b.c/2, 1)
			b.pool(2)
		}
	}
	b.globalPool()
	b.fc("fc", b.m.Dataset.Classes)
	return b.build()
}

// NewViT builds a compact vision transformer for CIFAR-10: 4×4 patch
// embedding (8×8 = 64 tokens, dim 256), six encoder blocks (fused QKV,
// output projection, and a 2× MLP), and a classification head — 26 weight
// layers.
func NewViT() *Model {
	const (
		dim     = 256
		mlpDim  = 512
		depth   = 6
		patchSz = 4
	)
	b := newBuilder("ViT", CIFAR10, 0.930)
	b.conv("patch_embed", patchSz, dim, patchSz) // 32/4 = 8×8 token grid
	for blk := 0; blk < depth; blk++ {
		b.tokenLayer(fmt.Sprintf("block%d.qkv", blk), Attention, dim, 3*dim)
		b.tokenLayer(fmt.Sprintf("block%d.proj", blk), FC, 3*dim, dim)
		b.tokenLayer(fmt.Sprintf("block%d.mlp1", blk), FC, dim, mlpDim)
		b.tokenLayer(fmt.Sprintf("block%d.mlp2", blk), FC, mlpDim, dim)
	}
	b.globalPool()
	b.fc("head", b.m.Dataset.Classes)
	return b.build()
}

// zoo lists every workload in Fig. 8 order, the paper's nine first, then
// the extension models this reproduction adds. AllWorkloads,
// ExtendedWorkloads and ByName all read it, so their names and order
// cannot drift apart.
var zoo = []struct {
	name  string
	build func() *Model
}{
	{"ResNet18", NewResNet18},
	{"VGG11", NewVGG11},
	{"GoogLeNet", NewGoogLeNet},
	{"DenseNet121", NewDenseNet121},
	{"ViT", NewViT},
	{"ResNet34", NewResNet34},
	{"VGG16", NewVGG16},
	{"ResNet50", NewResNet50},
	{"VGG19", NewVGG19},
	{"MobileNetV2", NewMobileNetV2},
}

// paperWorkloads counts the zoo's leading entries that are the paper's
// evaluation set.
const paperWorkloads = 9

// AllWorkloads returns the nine model/dataset pairs of the paper's
// evaluation (Fig. 8 order): five CIFAR-10 models, two CIFAR-100 models,
// two TinyImageNet models.
func AllWorkloads() []*Model { return buildZoo(paperWorkloads) }

// ExtendedWorkloads returns the paper's nine workloads plus the extension
// models this reproduction adds.
func ExtendedWorkloads() []*Model { return buildZoo(len(zoo)) }

// buildZoo builds fresh instances of the first n zoo models.
func buildZoo(n int) []*Model {
	out := make([]*Model, n)
	for i, e := range zoo[:n] {
		out[i] = e.build()
	}
	return out
}

// ByName returns a fresh instance of the named zoo model (including
// extension workloads), building only that model, or an error listing
// valid names.
func ByName(name string) (*Model, error) {
	for _, e := range zoo {
		if e.name == name {
			return e.build(), nil
		}
	}
	names := make([]string, len(zoo))
	for i, e := range zoo {
		names[i] = e.name
	}
	return nil, fmt.Errorf("dnn: unknown model %q (have %v)", name, names)
}
