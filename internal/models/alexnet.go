package models

// alexNet records the original (grouped, LRN) AlexNet on 227x227x3 input
// with 1000 classes: ~61M parameters (60,965,224) and ~1.45 GFLOPs per
// image, the numbers the paper quotes in Table 6. Two-tower convolutions
// (groups=2 on conv2/4/5), LRN after conv1/conv2, dropout on fc6/fc7.
func alexNet() *specBuilder {
	b := newSpecBuilder("AlexNet", 3, 227, 227, 1000)
	b.conv("conv1", 96, 11, 4, 0, 1, true).relu("relu1").lrn("norm1", 5).maxpool("pool1", 3, 2, 0)
	b.conv("conv2", 256, 5, 1, 2, 2, true).relu("relu2").lrn("norm2", 5).maxpool("pool2", 3, 2, 0)
	b.conv("conv3", 384, 3, 1, 1, 1, true).relu("relu3")
	b.conv("conv4", 384, 3, 1, 1, 2, true).relu("relu4")
	b.conv("conv5", 256, 3, 1, 1, 2, true).relu("relu5").maxpool("pool5", 3, 2, 0)
	return alexNetHead(b)
}

// alexNetBN records Ginsburg's AlexNet-BN refit that the paper uses for
// batch size 32K: every LRN is replaced by a batch normalization after the
// convolution, and grouping is removed (single-tower convolutions), which is
// what makes the model stable under the very large LARS learning rates.
// Built, it is a large allocation (~62M weights plus gradients); the
// measured experiments use the micro variants instead.
func alexNetBN() *specBuilder {
	b := newSpecBuilder("AlexNet-BN", 3, 227, 227, 1000)
	b.conv("conv1", 96, 11, 4, 0, 1, false).bn("bn1").relu("relu1").maxpool("pool1", 3, 2, 0)
	b.conv("conv2", 256, 5, 1, 2, 1, false).bn("bn2").relu("relu2").maxpool("pool2", 3, 2, 0)
	b.conv("conv3", 384, 3, 1, 1, 1, false).bn("bn3").relu("relu3")
	b.conv("conv4", 384, 3, 1, 1, 1, false).bn("bn4").relu("relu4")
	b.conv("conv5", 256, 3, 1, 1, 1, false).bn("bn5").relu("relu5").maxpool("pool5", 3, 2, 0)
	return alexNetHead(b)
}

// alexNetHead appends the classifier both AlexNets share.
func alexNetHead(b *specBuilder) *specBuilder {
	b.fc("fc6", 4096).relu("relu6").dropout("drop6")
	b.fc("fc7", 4096).relu("relu7").dropout("drop7")
	return b.fc("fc8", 1000)
}

// AlexNetSpec returns the original AlexNet (Table 6's 61M-parameter row).
func AlexNetSpec() *ModelSpec { return must(alexNet().build()) }

// AlexNetBNSpec returns the AlexNet-BN refit used at batch 32K.
func AlexNetBNSpec() *ModelSpec { return must(alexNetBN().build()) }
