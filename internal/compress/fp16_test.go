package compress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// toHalf and fromHalf run one value through the codec's slice converters.
func toHalf(f float32) uint16 {
	h := make([]uint16, 1)
	EncodeFP16([]float32{f}, h)
	return h[0]
}

func fromHalf(h uint16) float32 {
	f := make([]float32, 1)
	DecodeFP16([]uint16{h}, f)
	return f[0]
}

func TestHalfExactValues(t *testing.T) {
	cases := map[float32]uint16{
		0:     0x0000,
		1:     0x3c00,
		-1:    0xbc00,
		2:     0x4000,
		0.5:   0x3800,
		65504: 0x7bff, // largest finite half
	}
	for f, want := range cases {
		if got := toHalf(f); got != want {
			t.Errorf("EncodeFP16(%v) = %#04x, want %#04x", f, got, want)
		}
		if back := fromHalf(want); back != f {
			t.Errorf("DecodeFP16(%#04x) = %v, want %v", want, back, f)
		}
	}
}

func TestHalfSpecials(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := fromHalf(toHalf(inf)); !math.IsInf(float64(got), 1) {
		t.Errorf("+Inf roundtrip = %v", got)
	}
	ninf := float32(math.Inf(-1))
	if got := fromHalf(toHalf(ninf)); !math.IsInf(float64(got), -1) {
		t.Errorf("-Inf roundtrip = %v", got)
	}
	nan := float32(math.NaN())
	if got := fromHalf(toHalf(nan)); !math.IsNaN(float64(got)) {
		t.Errorf("NaN roundtrip = %v", got)
	}
	// Overflow beyond half range saturates to infinity.
	if got := fromHalf(toHalf(1e10)); !math.IsInf(float64(got), 1) {
		t.Errorf("1e10 should overflow to +Inf, got %v", got)
	}
	// Underflow to zero below the smallest subnormal.
	if got := fromHalf(toHalf(1e-10)); got != 0 {
		t.Errorf("1e-10 should flush to 0, got %v", got)
	}
}

func TestHalfSubnormals(t *testing.T) {
	// Smallest positive half subnormal: 2^-24.
	tiny := float32(math.Pow(2, -24))
	h := toHalf(tiny)
	if h != 0x0001 {
		t.Fatalf("2^-24 = %#04x, want 0x0001", h)
	}
	if back := fromHalf(h); back != tiny {
		t.Fatalf("subnormal roundtrip = %v, want %v", back, tiny)
	}
}

// Property: every half value roundtrips float32->half->float32 exactly when
// starting from a half-representable value.
func TestHalfIdempotenceProperty(t *testing.T) {
	f := func(bits uint16) bool {
		v := fromHalf(bits)
		if math.IsNaN(float64(v)) {
			return math.IsNaN(float64(fromHalf(toHalf(v))))
		}
		return fromHalf(toHalf(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// Property: relative rounding error for normal-range values is within the
// binary16 unit roundoff 2^-11.
func TestHalfRelativeErrorProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		v := (r.Float32()*2 - 1) * 100
		if v == 0 {
			return true
		}
		back := fromHalf(toHalf(v))
		rel := math.Abs(float64(back-v)) / math.Abs(float64(v))
		return rel <= math.Pow(2, -11)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeFP16Slices(t *testing.T) {
	r := rng.New(1)
	src := make([]float32, 1000)
	for i := range src {
		src[i] = r.NormFloat32()
	}
	enc := make([]uint16, 1000)
	dec := make([]float32, 1000)
	EncodeFP16(src, enc)
	DecodeFP16(enc, dec)
	for i := range src {
		if rel := math.Abs(float64(dec[i]-src[i])) / math.Abs(float64(src[i])); rel > math.Pow(2, -11)+1e-9 {
			t.Fatalf("slice roundtrip at %d: %v vs %v, relative error %v", i, dec[i], src[i], rel)
		}
	}
}

func TestFP16MonotoneOnPositives(t *testing.T) {
	// Rounding must preserve (non-strict) ordering.
	prev := uint16(0)
	for v := float32(0.001); v < 1000; v *= 1.1 {
		h := toHalf(v)
		if h < prev {
			t.Fatalf("half encoding not monotone at %v", v)
		}
		prev = h
	}
}

// BenchmarkFP16Codec measures the codec's batched conversion throughput —
// the kernel's batched magic-number converters versus a per-element loop
// over its scalar ones (what the codec did before the batched delegation).
func BenchmarkFP16Codec(b *testing.B) {
	const n = 1 << 16
	src := make([]float32, n)
	r := rng.New(11)
	for i := range src {
		src[i] = r.NormFloat32()
	}
	half := make([]uint16, n)
	dst := make([]float32, n)
	b.Run("batched", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			EncodeFP16(src, half)
			DecodeFP16(half, dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			for j, v := range src {
				half[j] = kernel.Float32ToHalf(v)
			}
			for j, h := range half {
				dst[j] = kernel.HalfToFloat32(h)
			}
		}
	})
}
