package dnn

import "fmt"

// MobileNetV2 is an extension workload beyond the paper's nine: its
// depthwise-separable blocks exercise the grouped-convolution mapping path
// (tiny 9-row blocks packed block-diagonally into crossbars), a layer shape
// none of the paper's models contain.

// dwConv appends a depthwise 3×3 convolution (groups = channels).
func (b *builder) dwConv(name string, stride int) {
	l := Layer{
		Name: name, Type: Conv,
		KernelH: 3, KernelW: 3,
		InChannels: b.c, OutChannels: b.c,
		InH: b.h, InW: b.w,
		Stride: stride,
		Groups: b.c,
	}
	b.m.Layers = append(b.m.Layers, l)
	b.h, b.w = l.OutH(), l.OutW()
}

// invertedResidual appends one MobileNetV2 block: 1×1 expansion (skipped
// when the ratio is 1), depthwise 3×3, and 1×1 projection.
func (b *builder) invertedResidual(name string, expand, out, stride int) {
	if expand != 1 {
		b.conv(name+".expand", 1, b.c*expand, 1)
	}
	b.dwConv(name+".dw", stride)
	b.conv(name+".project", 1, out, 1)
}

// NewMobileNetV2 builds the CIFAR-10 MobileNetV2 (stem, 17 inverted
// residual blocks, 1×1 head conv, classifier; 52 weight layers).
func NewMobileNetV2() *Model {
	b := newBuilder("MobileNetV2", CIFAR10, 0.936)
	b.conv("stem", 3, 32, 1)
	// (expansion, out channels, repeats, first stride) per stage.
	stages := []struct{ t, c, n, s int }{
		{1, 16, 1, 1},
		{6, 24, 2, 1}, // stride 1 on CIFAR's 32×32 input
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	blk := 0
	for _, st := range stages {
		for i := 0; i < st.n; i++ {
			stride := 1
			if i == 0 {
				stride = st.s
			}
			b.invertedResidual(fmt.Sprintf("block%d", blk), st.t, st.c, stride)
			blk++
		}
	}
	b.conv("head", 1, 1280, 1)
	b.globalPool()
	b.fc("fc", b.m.Dataset.Classes)
	return b.build()
}
