package kernel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refFloat32ToHalf is the plainly-written round-to-nearest-even conversion
// (the switch-based scalar that used to live in internal/compress) kept here
// as the specification the branch-light kernel encoder must match.
func refFloat32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 0x1f:
		if int32(bits>>23&0xff) == 0xff && mant != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp <= 0:
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	}
}

// refHalfToFloat32 is the matching specification decoder.
func refHalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// TestHalfToFloat32Exhaustive checks the decoder against the specification
// for every one of the 65536 binary16 values.
func TestHalfToFloat32Exhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		got := HalfToFloat32(uint16(h))
		want := refHalfToFloat32(uint16(h))
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("half %#04x: decoded %v (%#08x), want %v (%#08x)",
				h, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// encodeProbes returns float32 bit patterns that exercise every encoder
// branch: all exactly-representable halves, rounding boundaries around them,
// subnormal/overflow thresholds, ties, specials, and random patterns across
// the full exponent range.
func encodeProbes() []uint32 {
	var probes []uint32
	for h := 0; h < 1<<16; h++ {
		b := math.Float32bits(refHalfToFloat32(uint16(h)))
		// The value itself and its f32 neighbors (rounding boundaries),
		// plus the exact tie pattern 13 bits below the half mantissa.
		probes = append(probes, b, b+1, b-1, b+0x1000, b+0xfff, b+0x1001)
	}
	probes = append(probes,
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7f800001, // NaNs
		0x38800000, 0x387fffff, // 2^-14 and just below
		0x33800000, 0x33800001, 0x337fffff, // around 2^-24 (smallest subnormal tie)
		0x33000000, 0x32ffffff, // around 2^-25 (rounds to zero vs not)
		0x477fefff, 0x477ff000, 0x477ff001, // around 65520 (overflow tie)
		0x47800000, 0x477fffff, // 65536 and just below
	)
	r := rng.New(99)
	for i := 0; i < 1<<20; i++ {
		probes = append(probes, uint32(r.Uint64()))
	}
	return probes
}

func TestFloat32ToHalfMatchesReference(t *testing.T) {
	for _, b := range encodeProbes() {
		f := math.Float32frombits(b)
		got, want := Float32ToHalf(f), refFloat32ToHalf(f)
		if got != want {
			t.Fatalf("encode %v (%#08x): got %#04x, want %#04x", f, b, got, want)
		}
	}
}

// TestHalfRoundTripExhaustive: decode-then-encode restores every non-NaN
// half bit pattern (NaNs collapse to the canonical quiet NaN but stay NaN).
func TestHalfRoundTripExhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		f := HalfToFloat32(uint16(h))
		back := Float32ToHalf(f)
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 { // NaN
			if back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("half NaN %#04x round-tripped to non-NaN %#04x", h, back)
			}
			continue
		}
		if back != uint16(h) {
			t.Fatalf("half %#04x round-tripped to %#04x via %v", h, back, f)
		}
	}
}

// TestBatchedConvertersMatchScalar runs EncodeHalf and RoundHalf over every
// encode probe (each half value, its float32 neighbours and rounding ties,
// the thresholds, specials and a million random patterns) and DecodeHalf
// over all 2^16 halves, each starting at every offset mod 8, so every lane
// of RoundHalf's SSE kernel and every tail length meets every class. Each
// element must carry the scalar converters' bits exactly, NaN included: the
// kernel mints its NaNs, it never passes one through.
func TestBatchedConvertersMatchScalar(t *testing.T) {
	probes := encodeProbes()
	src := make([]float32, len(probes))
	for i, b := range probes {
		src[i] = math.Float32frombits(b)
	}
	halves := make([]uint16, 1<<16)
	for h := range halves {
		halves[h] = uint16(h)
	}
	for off := 0; off < 8; off++ {
		in := src[off:]
		enc := make([]uint16, len(in))
		EncodeHalf(enc, in)
		rounded := append([]float32(nil), in...)
		RoundHalf(rounded)
		for i, v := range in {
			want := Float32ToHalf(v)
			if enc[i] != want {
				t.Fatalf("off %d: EncodeHalf(%#08x) = %#04x, scalar %#04x", off, math.Float32bits(v), enc[i], want)
			}
			if got, want := math.Float32bits(rounded[i]), math.Float32bits(HalfToFloat32(want)); got != want {
				t.Fatalf("off %d: RoundHalf(%#08x) = %#08x, decode of encode %#08x", off, math.Float32bits(v), got, want)
			}
		}
		hin := halves[off:]
		dec := make([]float32, len(hin))
		DecodeHalf(dec, hin)
		for i, h := range hin {
			if got, want := math.Float32bits(dec[i]), math.Float32bits(HalfToFloat32(h)); got != want {
				t.Fatalf("off %d: DecodeHalf(%#04x) = %#08x, scalar %#08x", off, h, got, want)
			}
		}
	}
}

// randHalves returns n random binary16 values (widened from normals, so the
// distribution matches packed training tensors).
func randHalves(r *rng.Rand, n int) []uint16 {
	v := make([]uint16, n)
	for i := range v {
		v[i] = Float32ToHalf(r.NormFloat32())
	}
	return v
}

func bitsEqual(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestGemmNNHalfMatchesWidened: the half kernel is bit-identical to the f32
// kernel run on the widened operands — the oracle that pins both accuracy
// and the accumulation-order contract. Geometries cover k below/at/above the
// kc tile, odd k against the tile, single-row C, register-block remainders
// in both m and n, and empty panels.
func TestGemmNNHalfMatchesWidened(t *testing.T) {
	r := rng.New(11)
	for _, dims := range [][3]int{
		{1, 1, 1}, {1, 9, 257}, {4, 8, 256}, {5, 7, 255}, {6, 4, 300},
		{13, 17, 511}, {8, 3, 513}, {3, 5, 64}, {2, 6, 0}, {4, 0, 32}, {0, 5, 9},
	} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randHalves(r, m*k), randHalves(r, k*n)
		c0 := randVec(r, m*n)
		got := append([]float32(nil), c0...)
		GemmNNHalf(m, n, k, 0.7, a, b, 0.3, got)
		want := append([]float32(nil), c0...)
		GemmNN(m, n, k, 0.7, widenHalves(a), widenHalves(b), 0.3, want)
		if i := bitsEqual(got, want); i >= 0 {
			t.Fatalf("dims %v: coord %d: half %v vs widened %v", dims, i, got[i], want[i])
		}
	}
}

func TestGemmNTHalfMatchesWidened(t *testing.T) {
	r := rng.New(13)
	for _, dims := range [][3]int{
		{7, 11, 400}, {1, 3, 257}, {4, 4, 128}, {5, 2, 515}, {3, 6, 0}, {0, 4, 9},
	} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randHalves(r, m*k), randHalves(r, n*k)
		c0 := randVec(r, m*n)
		got := append([]float32(nil), c0...)
		GemmNTHalf(m, n, k, 0.9, a, b, 1, got)
		want := append([]float32(nil), c0...)
		GemmNT(m, n, k, 0.9, widenHalves(a), widenHalves(b), 1, want)
		if i := bitsEqual(got, want); i >= 0 {
			t.Fatalf("dims %v: coord %d: half %v vs widened %v", dims, i, got[i], want[i])
		}
	}
}

// TestGemmNNHalfChunkInvariance: arbitrary caller-side row splits (the par
// decomposition) produce identical bits — the half kernel keeps the per-row
// purity contract of the float32 kernels.
func TestGemmNNHalfChunkInvariance(t *testing.T) {
	r := rng.New(14)
	const m, n, k = 13, 17, 300
	a, b := randHalves(r, m*k), randHalves(r, k*n)
	whole := make([]float32, m*n)
	GemmNNHalf(m, n, k, 1, a, b, 0, whole)
	for _, bounds := range [][]int{{0, 1, m}, {0, 4, 5, m}, {0, 3, 6, 9, 12, m}, {0, 7, m}} {
		chunked := make([]float32, m*n)
		for bi := 0; bi+1 < len(bounds); bi++ {
			lo, hi := bounds[bi], bounds[bi+1]
			GemmNNHalf(hi-lo, n, k, 1, a[lo*k:hi*k], b, 0, chunked[lo*n:hi*n])
		}
		if i := bitsEqual(whole, chunked); i >= 0 {
			t.Fatalf("bounds %v: coord %d differs across row chunking", bounds, i)
		}
	}
}

// TestGemmNNHalfZeroRowChunkInvariantWithInf: a zero A-row skips its update
// whatever rows share its register block, exactly as in the f32 kernel —
// 0·Inf must not mint chunking-dependent NaNs in the register-tiled path.
func TestGemmNNHalfZeroRowChunkInvariantWithInf(t *testing.T) {
	const m, n, k = 5, 6, 4
	a := make([]uint16, m*k) // +0 in half is bit pattern 0
	for j := 0; j < k; j++ {
		a[0*k+j] = 0x3c00 // row 0 is ones, rows 1-4 all zero
	}
	b := make([]uint16, k*n)
	for i := range b {
		b[i] = 0x7c00 // +Inf
	}
	inf := float32(math.Inf(1))
	for _, bounds := range [][]int{{0, m}, {0, 1, m}, {0, 2, 4, m}, {0, 1, 2, 3, 4, m}} {
		c := make([]float32, m*n)
		for bi := 0; bi+1 < len(bounds); bi++ {
			lo, hi := bounds[bi], bounds[bi+1]
			GemmNNHalf(hi-lo, n, k, 1, a[lo*k:hi*k], b, 0, c[lo*n:hi*n])
		}
		for i := 1; i < m; i++ {
			for j := 0; j < n; j++ {
				if v := c[i*n+j]; v != 0 {
					t.Fatalf("bounds %v: zero row %d picked up %v from its block neighbors", bounds, i, v)
				}
			}
		}
		for j := 0; j < n; j++ {
			if c[j] != inf {
				t.Fatalf("bounds %v: nonzero row lost its Inf: %v", bounds, c[j])
			}
		}
	}
}

// BenchmarkHalfConvert compares the batched converters against a loop over
// the specification scalars — the dedup satellite's claim that hoisting the
// conversion into the kernel layer bought measurable speed.
func BenchmarkHalfConvert(b *testing.B) {
	r := rng.New(16)
	src := randVec(r, 1<<16)
	enc := make([]uint16, len(src))
	dec := make([]float32, len(src))
	EncodeHalf(enc, src)
	b.Run("encode/batched", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		for i := 0; i < b.N; i++ {
			EncodeHalf(enc, src)
		}
	})
	b.Run("encode/scalar-ref", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		for i := 0; i < b.N; i++ {
			for j, v := range src {
				enc[j] = refFloat32ToHalf(v)
			}
		}
	})
	b.Run("round/in-place", func(b *testing.B) {
		x := make([]float32, len(src))
		b.SetBytes(int64(4 * len(src)))
		for i := 0; i < b.N; i++ {
			copy(x, src)
			RoundHalf(x)
		}
	})
	b.Run("decode/batched", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		for i := 0; i < b.N; i++ {
			DecodeHalf(dec, enc)
		}
	})
	b.Run("decode/scalar-ref", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		for i := 0; i < b.N; i++ {
			for j, h := range enc {
				dec[j] = refHalfToFloat32(h)
			}
		}
	})
}
