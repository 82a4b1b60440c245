package tensor

import (
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

// TestBlockLoweringMatchesReference checks Im2ColBlock and Col2ImBlock bit for
// bit against an element-at-a-time reference over a block of three samples,
// at strides 1 (the copy/add-over-a-run path) and 2, with padding from none
// to wider than the window's reach into a narrow input, and a window wider
// than its input plus one side's padding (taps that never land in the row).
func TestBlockLoweringMatchesReference(t *testing.T) {
	const nb = 3
	r := rng.New(12)
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2, 3} {
			for _, win := range [][2]int{{2, 3}, {7, 3}, {1, 6}} {
				inW, kw := win[0], win[1]
				g := ConvGeom{InC: 2, InH: 5, InW: inW, KH: 3, KW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
				if g.Check() != nil {
					continue
				}
				outH, outW := g.OutH(), g.OutW()
				l, rows, imLen := outH*outW, g.InC*g.KH*g.KW, g.InC*g.InH*g.InW
				src := RandNormal(r, 1, nb*imLen).Data
				dcol := RandNormal(r, 1, rows*nb*l).Data
				wantCol := make([]float32, rows*nb*l)
				wantIm := make([]float32, nb*imLen)
				for s := 0; s < nb; s++ {
					for row := 0; row < rows; row++ {
						c, kh, kw := row/(g.KH*g.KW), row/g.KW%g.KH, row%g.KW
						for oh := 0; oh < outH; oh++ {
							for ow := 0; ow < outW; ow++ {
								ih, iw := oh*stride-pad+kh, ow*stride-pad+kw
								if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
									continue
								}
								at := s*imLen + (c*g.InH+ih)*g.InW + iw
								p := (row*nb+s)*l + oh*outW + ow
								wantCol[p] = src[at]
								wantIm[at] += dcol[p]
							}
						}
					}
				}
				col := RandNormal(r, 1, rows*nb*l).Data // stale values must all be overwritten
				Im2ColBlock(g, nb, src, col)
				im := make([]float32, nb*imLen)
				Col2ImBlock(g, nb, dcol, im)
				for i := range col {
					if math.Float32bits(col[i]) != math.Float32bits(wantCol[i]) {
						t.Fatalf("%+v: Im2ColBlock[%d] = %v, want %v", g, i, col[i], wantCol[i])
					}
				}
				for i := range im {
					if math.Float32bits(im[i]) != math.Float32bits(wantIm[i]) {
						t.Fatalf("%+v: Col2ImBlock[%d] = %v, want %v", g, i, im[i], wantIm[i])
					}
				}
			}
		}
	}
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
