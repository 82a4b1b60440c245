package tensor

import (
	"fmt"
	"sync"

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
//
// It only copies values and writes +0 for padding, in runs as long as the
// geometry allows. A strided input plane is first split into its
// StrideH×StrideW phases (sub-planes of every StrideH-th row and
// StrideW-th column), so every tap reads one phase at stride 1. When a
// phase's rows are as long as the output's (a "same" convolution, strided
// or not), a tap is one shifted copy of all its in-bounds rows, with the
// columns it wraps into from neighbouring rows cleared after; otherwise it
// copies row by row. A tap's rows outside the input are one clear.
func Im2ColBlock(g ConvGeom, nb int, src, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	l := outH * outW
	rows := g.InC * g.KH * g.KW
	plane := g.InH * g.InW
	if len(src) != nb*g.InC*plane {
		panic(fmt.Sprintf("tensor: Im2ColBlock src has %d elements, want %d", len(src), nb*g.InC*plane))
	}
	if len(col) != rows*nb*l {
		panic(fmt.Sprintf("tensor: Im2ColBlock col has %d elements, want %d", len(col), rows*nb*l))
	}
	defer kernel.StartPhase(kernel.PhaseIm2col).End()
	strided := g.StrideH > 1 || g.StrideW > 1
	// A phase is ph×pw: ⌈InH/StrideH⌉ rows of ⌈InW/StrideW⌉ columns. A phase
	// holding fewer leaves stale slots at its row or plane ends, which only
	// ever land in output positions that lowerTap clears.
	ph, pw := (g.InH+g.StrideH-1)/g.StrideH, (g.InW+g.StrideW-1)/g.StrideW
	// Parallelize over (sample, input channel) planes, as Col2ImBlock does:
	// a plane's KH·KW tap rows are written by the one goroutine that reads
	// (and splits) it.
	par.ForGrain(nb*g.InC, 1, func(plo, phi int) {
		var buf [16]tap
		hTaps, wTaps := g.taps(buf[:0])
		var split []float32
		if strided {
			pooled := phasePool.Get().(*[]float32)
			defer phasePool.Put(pooled)
			split = grow(pooled, g.StrideH*g.StrideW*ph*pw)
		}
		for p := plo; p < phi; p++ {
			s, c := p/g.InC, p%g.InC
			phases := src[p*plane : (p+1)*plane] // at stride 1, its own one phase
			if strided {
				g.splitPhases(phases, ph, pw, split)
				phases = split
			}
			for kh, th := range hTaps {
				for kw, tw := range wTaps {
					r := (c*g.KH+kh)*g.KW + kw
					dst := col[(r*nb+s)*l : (r*nb+s+1)*l]
					if th.lo == th.hi || tw.lo == tw.hi {
						clear(dst)
						continue
					}
					at := (th.phase*g.StrideW + tw.phase) * ph * pw
					lowerTap(th, tw, phases[at:at+ph*pw], pw, outW, dst)
				}
			}
		}
	})
}

// tap is where one kernel offset along one axis reads: the outputs [lo, hi)
// that land inside the input (the rest read padding), and the input phase
// and phase offset they read, o·stride − pad + k = (o + shift)·stride + phase.
type tap struct{ lo, hi, phase, shift int }

// taps returns the KH row taps and KW column taps of g, appended to buf.
func (g ConvGeom) taps(buf []tap) (h, w []tap) {
	for k := range g.KH {
		buf = append(buf, axisTap(k, g.PadH, g.StrideH, g.InH, g.OutH()))
	}
	for k := range g.KW {
		buf = append(buf, axisTap(k, g.PadW, g.StrideW, g.InW, g.OutW()))
	}
	return buf[:g.KH], buf[g.KH:]
}

// axisTap returns the tap of kernel offset k along an axis of out outputs
// reading an input of extent in: the outputs o with
// 0 ≤ o·stride − pad + k < in, or the empty span [0, 0) for a tap that never
// lands inside the input.
func axisTap(k, pad, stride, in, out int) tap {
	var t tap
	if pad > k {
		t.lo = (pad - k + stride - 1) / stride
	}
	if end := in + pad - k; end > 0 {
		t.hi = min(out, (end+stride-1)/stride)
	}
	if t.lo >= t.hi {
		t.lo, t.hi = 0, 0
	}
	d := k - pad // floor division and modulus of d by stride
	t.shift, t.phase = d/stride, d%stride
	if t.phase < 0 {
		t.shift, t.phase = t.shift-1, t.phase+stride
	}
	return t
}

// lowerTap writes the patch-matrix row of row tap th and column tap tw into
// dst, reading their phase src: w-wide rows, so dst[oh*outW+ow] =
// src[(oh+th.shift)*w + ow+tw.shift] inside the taps' spans and +0 outside.
// Both spans are non-empty.
func lowerTap(th, tw tap, src []float32, w, outW int, dst []float32) {
	if w == outW {
		// Output and phase rows are equally long and advance together, so
		// output element i reads phase element i + shift: one copy covers
		// every in-bounds row, and the columns it wraps into from the
		// neighbouring rows are cleared after it.
		shift := th.shift*w + tw.shift
		first, last := th.lo*w+tw.lo, (th.hi-1)*w+tw.hi
		clear(dst[:first])
		copy(dst[first:last], src[first+shift:])
		if gap := w - (tw.hi - tw.lo); gap > 0 {
			for i := th.lo*w + tw.hi; i < last; i += w {
				for j := i; j < i+gap; j++ {
					dst[j] = 0
				}
			}
		}
		clear(dst[last:])
		return
	}
	clear(dst[:th.lo*outW])
	for oh := th.lo; oh < th.hi; oh++ {
		drow := dst[oh*outW : (oh+1)*outW]
		clear(drow[:tw.lo])
		copy(drow[tw.lo:tw.hi], src[(oh+th.shift)*w+tw.lo+tw.shift:])
		clear(drow[tw.hi:])
	}
	clear(dst[th.hi*outW:])
}

// splitPhases writes the StrideH×StrideW phases of the input plane im into
// phases, each ph×pw: phase (qh, qw) holds the input elements
// (i·StrideH+qh, j·StrideW+qw) at (i, j). It walks im row by row; row ih is
// row i of the phases (qh, ·).
func (g ConvGeom) splitPhases(im []float32, ph, pw int, phases []float32) {
	size := ph * pw
	qh, i := 0, 0
	for ih := 0; ih < g.InH; ih++ {
		srow := im[ih*g.InW : (ih+1)*g.InW]
		out := phases[(qh*g.StrideW*ph+i)*pw:]
		if g.StrideW == 2 {
			// The pair loop made stride-2 lowering 1.3–1.7× faster than
			// the general one below.
			even, odd := out[:pw], out[size:size+pw]
			for j := 0; 2*j+1 < len(srow); j++ {
				even[j], odd[j] = srow[2*j], srow[2*j+1]
			}
			if len(srow)%2 == 1 {
				even[pw-1] = srow[len(srow)-1]
			}
		} else {
			qw, j := 0, 0
			for _, v := range srow {
				out[qw*size+j] = v
				if qw++; qw == g.StrideW {
					qw, j = 0, j+1
				}
			}
		}
		if qh++; qh == g.StrideH {
			qh, i = 0, i+1
		}
	}
}

// phasePool holds the per-goroutine buffers splitPhases writes into.
var phasePool = sync.Pool{New: func() any { return new([]float32) }}

// grow returns the first n elements of *buf, reallocating it when it is too
// small.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// Col2ImBlock accumulates a patch panel laid out as Im2ColBlock writes it
// (the gradient of Im2ColBlock's output) back into nb image gradients of
// CHW layout: sample s's columns accumulate into the s-th plane of dst. It
// is the exact adjoint of Im2ColBlock: positions that were read k times
// receive the sum of k contributions, and padding positions are dropped.
// Per destination element the contributions add in ascending (kh, kw)
// order, whatever the block size.
func Col2ImBlock(g ConvGeom, nb int, col, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	l := outH * outW
	rows := g.InC * g.KH * g.KW
	plane := g.InH * g.InW
	if len(dst) != nb*g.InC*plane {
		panic(fmt.Sprintf("tensor: Col2ImBlock dst has %d elements, want %d", len(dst), nb*g.InC*plane))
	}
	if len(col) != rows*nb*l {
		panic(fmt.Sprintf("tensor: Col2ImBlock col has %d elements, want %d", len(col), rows*nb*l))
	}
	defer kernel.StartPhase(kernel.PhaseIm2col).End()
	// Parallelize over (sample, input channel) planes: every destination
	// element belongs to exactly one, so plane-partitioned writes never race.
	par.ForGrain(nb*g.InC, 1, func(plo, phi int) {
		var buf [16]tap
		hTaps, wTaps := g.taps(buf[:0])
		for p := plo; p < phi; p++ {
			s, c := p/g.InC, p%g.InC
			im := dst[p*plane : (p+1)*plane]
			for kh, th := range hTaps {
				for kw, tw := range wTaps {
					if th.lo == th.hi || tw.lo == tw.hi {
						continue
					}
					r := (c*g.KH+kh)*g.KW + kw
					g.raiseTap(th, tw, col[(r*nb+s)*l:(r*nb+s+1)*l], outW, im)
				}
			}
		}
	})
}

// raiseTap adds the patch-matrix row src of row tap th and column tap tw
// into the input plane im, the adjoint of lowerTap: src[oh*outW+ow] inside
// the taps' spans adds into im at row (oh+th.shift)·StrideH + th.phase,
// column (ow+tw.shift)·StrideW + tw.phase. Both spans are non-empty.
func (g ConvGeom) raiseTap(th, tw tap, src []float32, outW int, im []float32) {
	from := th.lo*outW + tw.lo
	to := ((th.lo+th.shift)*g.StrideH+th.phase)*g.InW + (tw.lo+tw.shift)*g.StrideW + tw.phase
	addRows(im[to:], g.StrideH*g.InW, g.StrideW, src[from:], outW, tw.hi-tw.lo, th.hi-th.lo)
}

// addRows adds rows runs of n elements of src, the runs srcStep apart, into
// dst: element i of run r adds into dst[r*dstStep + i*stride]. Runs that
// abut in both src and dst are added as one. At stride 1 the adds go four
// elements at a time with their loads ahead of their stores, which keeps the
// adds of a short run from waiting on one another's stores (1.28× on
// micro-ConvNet's conv3; at stride 2 the same unrolling measured no faster);
// each element still sees exactly the one add dst + src.
func addRows(dst []float32, dstStep, stride int, src []float32, srcStep, n, rows int) {
	if stride == 1 && n == srcStep && n == dstStep {
		n, rows = n*rows, 1
	}
	for r := range rows {
		s := src[r*srcStep : r*srcStep+n]
		d := dst[r*dstStep : r*dstStep+(n-1)*stride+1]
		i := 0
		if stride == 1 {
			for ; i+4 <= len(s); i += 4 {
				s4, d4 := s[i:i+4:i+4], d[i:i+4:i+4]
				d0, d1, d2, d3 := d4[0]+s4[0], d4[1]+s4[1], d4[2]+s4[2], d4[3]+s4[3]
				d4[0], d4[1], d4[2], d4[3] = d0, d1, d2, d3
			}
		}
		for ; i < len(s); i++ {
			d[i*stride] += s[i]
		}
	}
}
