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
// Out-of-bounds (padding) positions contribute zeros.
func Im2Col(g ConvGeom, src []float32, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.KH * g.KW
	if len(src) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col src has %d elements, want %d", len(src), g.InC*g.InH*g.InW))
	}
	if len(col) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2Col col has %d elements, want %d", len(col), rows*cols))
	}
	defer kernel.StartPhase(kernel.PhaseIm2col).End()
	par.ForGrain(rows, 8, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			c := r / (g.KH * g.KW)
			rem := r % (g.KH * g.KW)
			kh := rem / g.KW
			kw := rem % g.KW
			dst := col[r*cols : (r+1)*cols]
			plane := src[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
			idx := 0
			for oh := 0; oh < outH; oh++ {
				ih := oh*g.StrideH - g.PadH + kh
				if ih < 0 || ih >= g.InH {
					for ow := 0; ow < outW; ow++ {
						dst[idx] = 0
						idx++
					}
					continue
				}
				rowBase := ih * g.InW
				iw := -g.PadW + kw
				for ow := 0; ow < outW; ow++ {
					if iw >= 0 && iw < g.InW {
						dst[idx] = plane[rowBase+iw]
					} else {
						dst[idx] = 0
					}
					idx++
					iw += g.StrideW
				}
			}
		}
	})
}

// Col2Im accumulates a patch matrix (the gradient of Im2Col's output) back
// into an image gradient of CHW layout. It is the exact adjoint of Im2Col:
// positions that were read k times receive the sum of k contributions, and
// padding positions are dropped.
func Col2Im(g ConvGeom, col []float32, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.KH * g.KW
	if len(dst) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst has %d elements, want %d", len(dst), g.InC*g.InH*g.InW))
	}
	if len(col) != rows*cols {
		panic(fmt.Sprintf("tensor: Col2Im col has %d elements, want %d", len(col), rows*cols))
	}
	defer kernel.StartPhase(kernel.PhaseIm2col).End()
	// Parallelize over input channels: every destination element belongs to
	// exactly one channel, so channel-partitioned writes never race.
	par.ForGrain(g.InC, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			plane := dst[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					r := (c*g.KH+kh)*g.KW + kw
					src := col[r*cols : (r+1)*cols]
					idx := 0
					for oh := 0; oh < outH; oh++ {
						ih := oh*g.StrideH - g.PadH + kh
						if ih < 0 || ih >= g.InH {
							idx += outW
							continue
						}
						rowBase := ih * g.InW
						iw := -g.PadW + kw
						for ow := 0; ow < outW; ow++ {
							if iw >= 0 && iw < g.InW {
								plane[rowBase+iw] += src[idx]
							}
							idx++
							iw += g.StrideW
						}
					}
				}
			}
		}
	})
}
