package models

import "fmt"

// bottleneckSpec appends one He-style bottleneck block (stride on the first
// 1x1 convolution, as in the original ResNet paper the authors cite) to the
// builder, including the projection shortcut when the geometry changes.
func bottleneckSpec(b *specBuilder, name string, mid, stride int) {
	b.residual(name, 4*mid, stride, ".relu3", func() {
		b.conv(name+".conv1", mid, 1, stride, 0, 1, false).bn(name + ".bn1").relu(name + ".relu1")
		b.conv(name+".conv2", mid, 3, 1, 1, 1, false).bn(name + ".bn2").relu(name + ".relu2")
		b.conv(name+".conv3", 4*mid, 1, 1, 0, 1, false).bn(name + ".bn3")
	})
}

// basicBlockSpec appends one 3x3+3x3 basic residual block.
func basicBlockSpec(b *specBuilder, name string, out, stride int) {
	b.residual(name, out, stride, ".relu2", func() {
		b.conv(name+".conv1", out, 3, stride, 1, 1, false).bn(name + ".bn1").relu(name + ".relu1")
		b.conv(name+".conv2", out, 3, 1, 1, 1, false).bn(name + ".bn2")
	})
}

// resNet records an ImageNet ResNet on 224x224x3 input: the 7x7 stem, four
// stages of blocks (the first block of every stage but the first strided,
// the width doubling per stage from 64), global average pooling and the
// 1000-way classifier.
func resNet(name string, stages []int, block func(b *specBuilder, name string, width, stride int)) *specBuilder {
	b := newSpecBuilder(name, 3, 224, 224, 1000)
	b.conv("conv1", 64, 7, 2, 3, 1, false).bn("bn1").relu("relu1").maxpool("pool1", 3, 2, 1)
	width := 64
	for stage, blocks := range stages {
		for blk := 0; blk < blocks; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2
			}
			block(b, fmt.Sprintf("conv%d_%d", stage+2, blk+1), width, stride)
		}
		width *= 2
	}
	return b.gap("gap").fc("fc", 1000)
}

// Basic-block ResNets (ResNet-18/34). The paper evaluates ResNet-50 only,
// but the spec machinery generalizes to the whole family, which both
// validates the counting code against more published parameter totals and
// gives users lighter full-size models.

func resNet18() *specBuilder {
	return resNet("ResNet-18", []int{2, 2, 2, 2}, basicBlockSpec)
}

func resNet34() *specBuilder {
	return resNet("ResNet-34", []int{3, 4, 6, 3}, basicBlockSpec)
}

// resNet50 is the canonical [3,4,6,3] bottleneck layout with bottleneck
// widths 64/128/256/512 (He et al. 2016). Built, it allocates ~200MB of
// weights and gradients; measured experiments use the micro ResNet.
func resNet50() *specBuilder {
	return resNet("ResNet-50", []int{3, 4, 6, 3}, bottleneckSpec)
}

// ResNet50Spec returns the exact ResNet-50 architecture on 224x224x3 input:
// ~25.6M parameters and ~7.7 GFLOPs per image (Table 6).
func ResNet50Spec() *ModelSpec { return must(resNet50().build()) }
