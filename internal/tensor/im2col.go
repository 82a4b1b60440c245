package tensor

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/par"
)

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
// It is the one place the output extent of a window is defined: the conv
// and pooling layers and the model specs all size their outputs by it.
type ConvGeom struct {
	InC, InH, InW    int // input channels and spatial extent
	KH, KW           int // kernel extent
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height: how many windows fit the padded input.
func (g ConvGeom) OutH() int { return windows(g.InH+2*g.PadH, g.KH, g.StrideH) }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return windows(g.InW+2*g.PadW, g.KW, g.StrideW) }

// windows counts the k-wide windows, stride apart, that fit in extent in:
// 0 when not even one does (a bare (in−k)/stride + 1 would truncate a
// negative numerator towards zero and report one window hanging off the
// input).
func windows(in, k, stride int) int {
	if in < k {
		return 0
	}
	return (in-k)/stride + 1
}

// Check reports a geometry no layer can run: a non-positive window or
// stride, or a window that does not fit its padded input.
func (g ConvGeom) Check() error {
	if g.StrideH <= 0 || g.StrideW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: invalid window geometry %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: %dx%d window with padding %d,%d does not fit a %dx%d input", g.KH, g.KW, g.PadH, g.PadW, g.InH, g.InW)
	}
	return nil
}

// Im2Col lowers one image (CHW layout, shape [InC*InH*InW]) into a patch
// matrix of shape [InC*KH*KW, OutH*OutW] written into col. Each column holds
// the receptive field of one output position, so a convolution becomes a
// GEMM between the [outC, InC*KH*KW] filter matrix and this patch matrix.
// Out-of-bounds (padding) positions contribute zeros. It is Im2ColBlock with
// a block of one.
func Im2Col(g ConvGeom, src []float32, col []float32) { Im2ColBlock(g, 1, src, col) }

// Im2ColBlock lowers nb images (consecutive CHW planes in src) into one patch
// panel of shape [InC*KH*KW, nb*OutH*OutW]: sample s owns columns
// [s*OutH*OutW, (s+1)*OutH*OutW) of every row, laid out as Im2Col lays out
// its one image, so a single GEMM against the filter matrix convolves the
// whole block.
func Im2ColBlock(g ConvGeom, nb int, src, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	l := outH * outW
	rows := g.InC * g.KH * g.KW
	imLen := g.InC * g.InH * g.InW
	if len(src) != nb*imLen {
		panic(fmt.Sprintf("tensor: Im2ColBlock src has %d elements, want %d", len(src), nb*imLen))
	}
	if len(col) != rows*nb*l {
		panic(fmt.Sprintf("tensor: Im2ColBlock col has %d elements, want %d", len(col), rows*nb*l))
	}
	defer kernel.StartPhase(kernel.PhaseIm2col).End()
	par.ForGrain(rows, 8, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			c := r / (g.KH * g.KW)
			kh := r % (g.KH * g.KW) / g.KW
			kw := r % g.KW
			owLo, owHi, iw0 := g.inBounds(kw, outW)
			for s := 0; s < nb; s++ {
				dst := col[(r*nb+s)*l : (r*nb+s+1)*l]
				plane := src[s*imLen+c*g.InH*g.InW : s*imLen+(c+1)*g.InH*g.InW]
				for oh := 0; oh < outH; oh++ {
					drow := dst[oh*outW : (oh+1)*outW]
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						clear(drow)
						continue
					}
					srow := plane[ih*g.InW : (ih+1)*g.InW]
					if g.StrideW == 1 {
						clear(drow[:owLo])
						copy(drow[owLo:owHi], srow[iw0:])
						clear(drow[owHi:])
						continue
					}
					iw := -g.PadW + kw
					for ow := range drow {
						if iw >= 0 && iw < g.InW {
							drow[ow] = srow[iw]
						} else {
							drow[ow] = 0
						}
						iw += g.StrideW
					}
				}
			}
		}
	})
}

// inBounds returns the output columns [owLo, owHi) whose stride-1 tap kw
// reads inside the input row, and the input column iw0 that owLo reads: the
// run Im2ColBlock copies and Col2ImBlock adds in one pass, the rest being
// padding. A tap that never lands inside the row gets the empty run at 0.
func (g ConvGeom) inBounds(kw, outW int) (owLo, owHi, iw0 int) {
	owLo = max(0, g.PadW-kw)
	owHi = min(outW, g.InW+g.PadW-kw)
	if owLo >= owHi {
		return 0, 0, 0
	}
	return owLo, owHi, owLo - g.PadW + kw
}

// Col2ImBlock accumulates a patch panel laid out as Im2ColBlock writes it
// (the gradient of Im2ColBlock's output) back into nb image gradients of
// CHW layout: sample s's columns accumulate into the s-th plane of dst. It
// is the exact adjoint of Im2ColBlock: positions that were read k times
// receive the sum of k contributions, and padding positions are dropped.
// Per destination element the contributions add in the same order whatever
// the block size.
func Col2ImBlock(g ConvGeom, nb int, col, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	l := outH * outW
	rows := g.InC * g.KH * g.KW
	imLen := g.InC * g.InH * g.InW
	if len(dst) != nb*imLen {
		panic(fmt.Sprintf("tensor: Col2ImBlock dst has %d elements, want %d", len(dst), nb*imLen))
	}
	if len(col) != rows*nb*l {
		panic(fmt.Sprintf("tensor: Col2ImBlock col has %d elements, want %d", len(col), rows*nb*l))
	}
	defer kernel.StartPhase(kernel.PhaseIm2col).End()
	// Parallelize over (sample, input channel) planes: every destination
	// element belongs to exactly one, so plane-partitioned writes never race.
	par.ForGrain(nb*g.InC, 1, func(plo, phi int) {
		for p := plo; p < phi; p++ {
			s, c := p/g.InC, p%g.InC
			plane := dst[p*g.InH*g.InW : (p+1)*g.InH*g.InW]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					r := (c*g.KH+kh)*g.KW + kw
					src := col[(r*nb+s)*l : (r*nb+s+1)*l]
					owLo, owHi, iw0 := g.inBounds(kw, outW)
					for oh := 0; oh < outH; oh++ {
						ih := oh*g.StrideH - g.PadH + kh
						if ih < 0 || ih >= g.InH {
							continue
						}
						srow := src[oh*outW : (oh+1)*outW]
						prow := plane[ih*g.InW : (ih+1)*g.InW]
						if g.StrideW == 1 {
							run := prow[iw0:]
							for i, v := range srow[owLo:owHi] {
								run[i] += v
							}
							continue
						}
						iw := -g.PadW + kw
						for _, v := range srow {
							if iw >= 0 && iw < g.InW {
								prow[iw] += v
							}
							iw += g.StrideW
						}
					}
				}
			}
		}
	})
}
