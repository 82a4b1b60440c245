package tensor

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// naiveConvOut computes one output position of a convolution directly, for
// validating the im2col lowering.
func naiveConvOut(g ConvGeom, src, filter []float32, oh, ow int) float32 {
	var s float32
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				ih := oh*g.StrideH - g.PadH + kh
				iw := ow*g.StrideW - g.PadW + kw
				if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
					continue
				}
				s += src[(c*g.InH+ih)*g.InW+iw] * filter[(c*g.KH+kh)*g.KW+kw]
			}
		}
	}
	return s
}

func TestConvGeomOutput(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 224, InW: 224, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	if g.OutH() != 112 || g.OutW() != 112 {
		t.Fatalf("ResNet conv1 geometry: got %dx%d, want 112x112", g.OutH(), g.OutW())
	}
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 2, PadH: 1, PadW: 1}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	src := RandNormal(r, 1, g.InC*g.InH*g.InW)
	filter := RandNormal(r, 1, g.InC*g.KH*g.KW)
	rows := g.InC * g.KH * g.KW
	cols := g.OutH() * g.OutW()
	col := make([]float32, rows*cols)
	Im2Col(g, src.Data, col)
	// filterᵀ · col should equal the direct convolution at every position.
	fm := FromSlice(filter.Data, 1, rows)
	cm := FromSlice(col, rows, cols)
	out := New(1, cols)
	Gemm(false, false, 1, fm, cm, 0, out)
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < g.OutW(); ow++ {
			want := naiveConvOut(g, src.Data, filter.Data, oh, ow)
			got := out.Data[oh*g.OutW()+ow]
			if !almostEq(float64(got), float64(want), 1e-4) {
				t.Fatalf("conv mismatch at (%d,%d): %v vs %v", oh, ow, got, want)
			}
		}
	}
}

// Property: Col2ImBlock is the adjoint of Im2Col, i.e. <Im2Col(x), y> == <x, Col2ImBlock(y)>
// for all x, y. This is exactly the condition for the conv backward pass to
// compute correct input gradients.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed uint64, s1, s2 uint8) bool {
		g := ConvGeom{
			InC: int(s1%3) + 1, InH: int(s2%5) + 3, InW: int(s1%4) + 3,
			KH: 3, KW: 2, StrideH: int(s2%2) + 1, StrideW: 1, PadH: 1, PadW: 1,
		}
		if g.Check() != nil {
			return false
		}
		r := rng.New(seed)
		rows := g.InC * g.KH * g.KW
		cols := g.OutH() * g.OutW()
		x := RandNormal(r, 1, g.InC*g.InH*g.InW)
		y := RandNormal(r, 1, rows*cols)
		colX := make([]float32, rows*cols)
		Im2Col(g, x.Data, colX)
		imY := make([]float32, g.InC*g.InH*g.InW)
		Col2ImBlock(g, 1, y.Data, imY)
		lhs := FromSlice(colX, rows*cols).Dot(y.Reshape(rows * cols))
		rhs := x.Dot(FromSlice(imY, g.InC*g.InH*g.InW))
		return almostEq(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	// With a 2x2 kernel, stride 1, no padding on a 3x3 input, the center
	// pixel is read by all four output positions; Col2ImBlock of all-ones must
	// therefore put 4 there.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	cols := g.OutH() * g.OutW()
	col := make([]float32, g.KH*g.KW*cols)
	for i := range col {
		col[i] = 1
	}
	img := make([]float32, 9)
	Col2ImBlock(g, 1, col, img)
	if img[4] != 4 {
		t.Fatalf("center accumulation = %v, want 4", img[4])
	}
	if img[0] != 1 {
		t.Fatalf("corner accumulation = %v, want 1", img[0])
	}
}

// lowerRef is the element-at-a-time definition of block lowering. It returns
// the patch panel Im2ColBlock writes for src and adds dcol's contributions
// into im as Col2ImBlock does: one at a time, in ascending (kh, kw) order per
// destination element.
func lowerRef(g ConvGeom, nb int, src, dcol, im []float32) (col []float32) {
	outH, outW := g.OutH(), g.OutW()
	l, rows, imLen := outH*outW, g.InC*g.KH*g.KW, g.InC*g.InH*g.InW
	col = make([]float32, rows*nb*l)
	for s := 0; s < nb; s++ {
		for row := 0; row < rows; row++ {
			c, kh, kw := row/(g.KH*g.KW), row/g.KW%g.KH, row%g.KW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
					if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
						continue
					}
					at := s*imLen + (c*g.InH+ih)*g.InW + iw
					p := (row*nb+s)*l + oh*outW + ow
					col[p] = src[at]
					im[at] += dcol[p]
				}
			}
		}
	}
	return col
}

// checkLowering holds Im2ColBlock and Col2ImBlock to lowerRef. The panel is
// a copy, so it must match bit for bit, NaN payloads included, and a stale
// NaN left in it fails; an accumulated sum that is NaN only has to be NaN,
// because which of two NaN operands an x86 add returns is operand order,
// which the compiler picks per loop.
func checkLowering(t *testing.T, g ConvGeom, nb int, src, dcol, im0 []float32) {
	t.Helper()
	wantIm := append([]float32(nil), im0...)
	wantCol := lowerRef(g, nb, src, dcol, wantIm)
	col := make([]float32, len(wantCol))
	for i := range col {
		col[i] = math.Float32frombits(0x7fc0dead)
	}
	Im2ColBlock(g, nb, src, col)
	im := append([]float32(nil), im0...)
	Col2ImBlock(g, nb, dcol, im)
	for i := range col {
		if math.Float32bits(col[i]) != math.Float32bits(wantCol[i]) {
			t.Fatalf("%+v nb=%d: Im2ColBlock[%d] = %#x, want %#x", g, nb, i, math.Float32bits(col[i]), math.Float32bits(wantCol[i]))
		}
	}
	for i := range im {
		got, want := im[i], wantIm[i]
		if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
			t.Fatalf("%+v nb=%d: Col2ImBlock[%d] = %#x, want %#x", g, nb, i, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestBlockLoweringMatchesReference sweeps the lowering paths against
// lowerRef: strides 1 to 3 (whole-run and row-by-row copies, straight from
// the plane or from its phase split; whole-run and row-by-row adds), padding
// from none to wider than the window's reach into a narrow input, windows
// wider than their input plus one side's padding (taps that never land in
// the row), and blocks of one to four samples.
func TestBlockLoweringMatchesReference(t *testing.T) {
	r := rng.New(12)
	for _, stride := range []int{1, 2, 3} {
		for _, pad := range []int{0, 1, 2, 3} {
			for _, win := range [][2]int{{2, 3}, {7, 3}, {1, 6}, {5, 5}} {
				inW, kw := win[0], win[1]
				g := ConvGeom{InC: 2, InH: 5, InW: inW, KH: 3, KW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
				if g.Check() != nil {
					continue
				}
				for nb := 1; nb <= 4; nb++ {
					imLen, colLen := g.InC*g.InH*g.InW, g.InC*g.KH*g.KW*nb*g.OutH()*g.OutW()
					src := RandNormal(r, 1, nb*imLen).Data
					checkLowering(t, g, nb, src, RandNormal(r, 1, colLen).Data, RandNormal(r, 1, nb*imLen).Data)
				}
			}
		}
	}
}

// FuzzLowering holds Im2ColBlock and Col2ImBlock to lowerRef over fuzzed
// geometries and values. Each geometry byte packs two fields, the low nibble
// for the height (or the channel count) and the high one for the width (or
// the block size): extents 1–8, windows 1–5, strides 1–3, padding 0–3, 1–3
// channels, blocks of 1–4 samples. raw's little-endian words fill the input,
// the panel gradient and the destination's starting values in turn,
// cycling, so a seed can plant NaN payloads, ±0 and ±Inf anywhere.
func FuzzLowering(f *testing.F) {
	words := func(ws ...uint32) []byte {
		var raw []byte
		for _, w := range ws {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		return raw
	}
	ordinary := words(0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x40a00000, 0xbeaaaaab, 0x3f7ffffe, 0x42c80000)
	special := words(0x7fc00001, 0x00000000, 0xffc12345, 0x80000000, 0x7f800000, 0x3dcccccd,
		0xff800000, 0x7f800001, 0x40a00000, 0xffbfffff, 0x00000001, 0xbeaaaaab, 0x7fc0beef)
	for _, s := range []struct {
		hw, win, stride, pad, cnb uint8
		raw                       []byte
	}{
		{0x77, 0x22, 0x00, 0x11, 0x31, ordinary}, // 8×8, 3×3, stride 1, pad 1: the whole-run copy
		{0x77, 0x22, 0x11, 0x11, 0x22, special},  // stride 2, pad 1: whole runs from the phase split
		{0x67, 0x22, 0x11, 0x11, 0x12, special},  // stride 2 on an odd width
		{0x55, 0x44, 0x22, 0x22, 0x20, special},  // 5×5 window, stride 3, pad 2
		{0x11, 0x44, 0x00, 0x33, 0x31, special},  // 5×5 window on 2×2 input, pad 3
		{0x10, 0x40, 0x10, 0x30, 0x00, ordinary}, // 1×5 window, stride 2, pad 3 on a 2-wide row: taps that never land
		{0x43, 0x20, 0x01, 0x02, 0x12, special},  // 4×5 input, 1×3 window, stride 2 down and 1 across
		{0x77, 0x22, 0x00, 0x00, 0x11, special},  // stride 1 unpadded: row-by-row copies
		{0x00, 0x00, 0x22, 0x00, 0x30, special},  // 1×1 everything, stride 3
	} {
		f.Add(s.hw, s.win, s.stride, s.pad, s.cnb, s.raw)
	}
	f.Fuzz(func(t *testing.T, hw, win, stride, pad, cnb uint8, raw []byte) {
		g := ConvGeom{
			InC: 1 + int(cnb&15)%3, InH: 1 + int(hw&7), InW: 1 + int(hw>>4&7),
			KH: 1 + int(win&15)%5, KW: 1 + int(win>>4)%5,
			StrideH: 1 + int(stride&15)%3, StrideW: 1 + int(stride>>4)%3,
			PadH: int(pad & 3), PadW: int(pad >> 4 & 3),
		}
		nb := 1 + int(cnb>>4)%4
		if g.Check() != nil {
			return
		}
		next := 0
		fill := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				if len(raw) < 4 {
					v[i] = float32(next%7) - 3
				} else {
					off := 4 * (next % (len(raw) / 4))
					v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
				}
				next++
			}
			return v
		}
		imLen, colLen := nb*g.InC*g.InH*g.InW, g.InC*g.KH*g.KW*nb*g.OutH()*g.OutW()
		src := fill(imLen)
		dcol := fill(colLen)
		checkLowering(t, g, nb, src, dcol, fill(imLen))
	})
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 16, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := rng.New(1)
	src := RandNormal(r, 1, g.InC*g.InH*g.InW)
	col := make([]float32, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(g, src.Data, col)
	}
}

// BenchmarkLowering times Im2ColBlock and Col2ImBlock on one block at the
// shapes the conv workloads lower: micro-ConvNet's four 3×3 pad-1 convs on a
// 24×24 input (width 8) and micro-AlexNet's conv2 at 12×12. The block holds
// as many samples as nn.Conv2D's 64 Ki-float panel budget allows, which is
// the block size a batch of 16 or more lowers at.
func BenchmarkLowering(b *testing.B) {
	const panelBudget = 64 << 10
	for _, sh := range []struct {
		name            string
		inC, hw, stride int
	}{
		{"convnet-conv1", 3, 24, 1},
		{"convnet-conv2", 8, 24, 2},
		{"convnet-conv3", 16, 12, 1},
		{"convnet-conv4", 16, 12, 2},
		{"alexnet-conv2", 8, 12, 1},
	} {
		g := ConvGeom{InC: sh.inC, InH: sh.hw, InW: sh.hw, KH: 3, KW: 3, StrideH: sh.stride, StrideW: sh.stride, PadH: 1, PadW: 1}
		k, l := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		nb := max(1, panelBudget/(k*l))
		r := rng.New(1)
		im := RandNormal(r, 1, nb*g.InC*g.InH*g.InW).Data
		col := RandNormal(r, 1, k*nb*l).Data
		b.Run(sh.name+"/im2col", func(b *testing.B) {
			b.SetBytes(int64(4 * len(col)))
			for i := 0; i < b.N; i++ {
				Im2ColBlock(g, nb, im, col)
			}
		})
		b.Run(sh.name+"/col2im", func(b *testing.B) {
			b.SetBytes(int64(4 * len(col)))
			for i := 0; i < b.N; i++ {
				Col2ImBlock(g, nb, col, im)
			}
		})
	}
}

// TestWindowRule pins ConvGeom's one output rule: a window that does not
// fit its padded input gives 0 (never the 1 that truncating a negative
// (in+2p−k)/s towards zero would report), and Check refuses it with an
// error, as it does a non-positive window or stride.
func TestWindowRule(t *testing.T) {
	for _, tc := range []struct {
		g          ConvGeom
		outH, outW int
		ok         bool
	}{
		{ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, 0, 0, false},
		{ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 1, 1, true},
		{ConvGeom{InC: 1, InH: 3, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, 1, 0, false},
		{ConvGeom{InC: 1, InH: 7, InW: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, 3, 3, true},
		{ConvGeom{InC: 1, InH: 4, InW: 4, KH: 0, KW: 3, StrideH: 1, StrideW: 1}, 5, 2, false},
	} {
		if tc.g.OutH() != tc.outH || tc.g.OutW() != tc.outW {
			t.Errorf("%+v: out %dx%d, want %dx%d", tc.g, tc.g.OutH(), tc.g.OutW(), tc.outH, tc.outW)
		}
		if err := tc.g.Check(); (err == nil) != tc.ok {
			t.Errorf("%+v: Check() = %v, want ok=%v", tc.g, err, tc.ok)
		}
	}
}
