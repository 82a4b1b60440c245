package kernel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refPairwiseSum is the tree-shape specification written as plainly as
// possible: base blocks of blockN summed with four strided accumulators,
// longer inputs split at a blockN-aligned midpoint. The optimized kernel
// must match it bit for bit — this is what pins the fixed-tree contract.
func refPairwiseSum(x []float32) float32 {
	if len(x) <= blockN {
		var s [4]float32
		i := 0
		for ; i+4 <= len(x); i += 4 {
			s[0] += x[i]
			s[1] += x[i+1]
			s[2] += x[i+2]
			s[3] += x[i+3]
		}
		for ; i < len(x); i++ { // the ragged tail rides accumulator 0
			s[0] += x[i]
		}
		return (s[0] + s[1]) + (s[2] + s[3])
	}
	blocks := (len(x) + blockN - 1) / blockN
	h := (blocks + 1) / 2 * blockN
	return refPairwiseSum(x[:h]) + refPairwiseSum(x[h:])
}

// refTreeAt evaluates PairwiseAccumulate's source tree for one coordinate.
func refTreeAt(srcs [][]float32, scales []float32, i int) float32 {
	if len(srcs) == 0 {
		return 0
	}
	if len(srcs) == 1 {
		return scaleAt(scales, 0) * srcs[0][i]
	}
	h := (len(srcs) + 1) / 2
	var ls, rs []float32
	if scales != nil {
		ls, rs = scales[:h], scales[h:]
	}
	return refTreeAt(srcs[:h], ls, i) + refTreeAt(srcs[h:], rs, i)
}

func randVec(r *rng.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}

// TestPairwiseSumMatchesReferenceShape holds PairwiseSum and the squares
// and products of the one-pass kernels to the reference tree, in every
// form of their leaves the CPU runs (see eachForm), at lengths whose last
// leaf ends at 0–3 mod 4 and that span one to eighty leaves.
func TestPairwiseSumMatchesReferenceShape(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 31, 127, 128, 129, 130, 131, 255, 256, 257, 387, 518, 643, 1000, 1155, 4096, 10000} {
		x := randVec(r, n)
		xsq := make([]float32, n)
		for i, v := range x {
			xsq[i] = v * v
		}
		y := randVec(r, n)
		xy := make([]float32, n)
		for i := range xy {
			xy[i] = x[i] * y[i]
		}
		eachForm(func(form string) {
			if got, want := PairwiseSum(x), refPairwiseSum(x); got != want {
				t.Fatalf("n=%d: PairwiseSum = %v, reference tree = %v", n, got, want)
			}
			if _, got := PairwiseSumAndSq(x); got != refPairwiseSum(xsq) {
				t.Fatalf("%s n=%d: PairwiseSumAndSq's squares = %v, reference tree = %v", form, n, got, refPairwiseSum(xsq))
			}
			if _, got := PairwiseSumAndDot(x, y); got != refPairwiseSum(xy) {
				t.Fatalf("%s n=%d: PairwiseSumAndDot's dot = %v, reference tree = %v", form, n, got, refPairwiseSum(xy))
			}
		})
	}
}

// TestPairwiseSumSliceInvariance: the tree shape depends only on length, so
// the same values summed from any position inside a larger backing array —
// any offset, any spare capacity — give the same bits.
func TestPairwiseSumSliceInvariance(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 100, 129, 777, 5000} {
		x := randVec(r, n)
		want := PairwiseSum(x)
		for _, off := range []int{1, 7, 64, 129} {
			backing := randVec(r, off+n+off)
			copy(backing[off:off+n], x)
			if got := PairwiseSum(backing[off : off+n]); got != want {
				t.Fatalf("n=%d off=%d: sliced sum %v != %v", n, off, got, want)
			}
		}
	}
}

func TestPairwiseSumAccuracy(t *testing.T) {
	r := rng.New(3)
	const n = 1 << 20
	x := randVec(r, n)
	var exact float64
	for _, v := range x {
		exact += float64(v)
	}
	got := float64(PairwiseSum(x))
	// Pairwise error grows O(log n)·ε; allow a generous absolute bound
	// scaled by the L1 mass of the input.
	var l1 float64
	for _, v := range x {
		l1 += math.Abs(float64(v))
	}
	if diff := math.Abs(got - exact); diff > 1e-5*l1 {
		t.Fatalf("pairwise sum drifted from exact: |%v - %v| = %v", got, exact, diff)
	}
}

func TestPairwiseAccumulateMatchesReferenceTree(t *testing.T) {
	r := rng.New(4)
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 16} {
		const n = 300
		srcs := make([][]float32, p)
		scales := make([]float32, p)
		for s := range srcs {
			srcs[s] = randVec(r, n)
			scales[s] = 0.25 + float32(s)
		}
		dst := make([]float32, n)
		PairwiseAccumulate(dst, srcs, scales)
		for i := range dst {
			if want := refTreeAt(srcs, scales, i); dst[i] != want {
				t.Fatalf("p=%d coord %d: %v != reference tree %v", p, i, dst[i], want)
			}
		}
		// nil scales is the unscaled tree.
		PairwiseAccumulate(dst, srcs, nil)
		for i := range dst {
			if want := refTreeAt(srcs, nil, i); dst[i] != want {
				t.Fatalf("p=%d coord %d (unscaled): %v != %v", p, i, dst[i], want)
			}
		}
	}
}

// TestPairwiseAccumulateChunkInvariance: the tree runs over the source
// index per coordinate, so accumulating a range in one call or in many
// arbitrary chunks gives identical bits — what makes the caller's parallel
// chunking (par.ForGrain) irrelevant to the result.
func TestPairwiseAccumulateChunkInvariance(t *testing.T) {
	r := rng.New(5)
	const n, p = 1009, 7
	srcs := make([][]float32, p)
	scales := make([]float32, p)
	for s := range srcs {
		srcs[s] = randVec(r, n)
		scales[s] = 1 / float32(s+1)
	}
	whole := make([]float32, n)
	PairwiseAccumulate(whole, srcs, scales)
	chunked := make([]float32, n)
	for _, bounds := range [][]int{{0, 1, n}, {0, 100, 613, n}, {0, 2048 % n, n}} {
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			sub := make([][]float32, p)
			for s := range srcs {
				sub[s] = srcs[s][lo:hi]
			}
			PairwiseAccumulate(chunked[lo:hi], sub, scales)
		}
		for i := range whole {
			if whole[i] != chunked[i] {
				t.Fatalf("bounds %v: coord %d differs after chunked accumulate", bounds, i)
			}
		}
	}
}

func TestPairwiseAccumulateAliasesRoot(t *testing.T) {
	r := rng.New(6)
	const n, p = 500, 5
	srcs := make([][]float32, p)
	for s := range srcs {
		srcs[s] = randVec(r, n)
	}
	want := make([]float32, n)
	PairwiseAccumulate(want, srcs, nil)
	// dst == srcs[0], the collective's in-place root reduction.
	PairwiseAccumulate(srcs[0], srcs, nil)
	for i := range want {
		if srcs[0][i] != want[i] {
			t.Fatalf("coord %d: in-place root %v != out-of-place %v", i, srcs[0][i], want[i])
		}
	}
}

// TestCanonicalAccumulateBitCompat pins CanonicalAccumulate, in every form
// the CPU runs (see eachForm), to the scalar per-coordinate loops it
// replaced: nil scales seeded from srcs[0] (the historical collective),
// scales zero-seeded (the engine's shard-weighted loop), and in place on the
// root as the collective calls it. Lengths cover every tail around the
// eight- and four-wide vector passes and several canonBlock rows, source
// counts run up to nine. Two input kinds: plain sources in which every even coordinate
// has srcs[0] = 2^40·x and srcs[p-1] = −srcs[0], so its float32 result
// depends on the order the sources are added in (the test checks that it
// does); and sources salted, in a minority of coordinates, with ±0,
// subnormals, ±Inf and values whose sum overflows float32. One NaN source
// per coordinate at most: which of two NaN operands an x86 add returns is
// operand order, not arithmetic.
func TestCanonicalAccumulateBitCompat(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32, float32(math.NaN())}
	var lengths []int
	for n := 0; n <= 37; n++ {
		lengths = append(lengths, n)
	}
	// reference is the scalar per-coordinate loop, visiting the sources in
	// the given order (seeded from the first one when sc is nil).
	reference := func(srcs [][]float32, sc []float64, order []int) []float32 {
		out := make([]float32, len(srcs[0]))
		for i := range out {
			var acc float64
			for k, s := range order {
				switch {
				case sc != nil:
					acc += sc[s] * float64(srcs[s][i])
				case k == 0:
					acc = float64(srcs[s][i])
				default:
					acc += float64(srcs[s][i])
				}
			}
			out[i] = float32(acc)
		}
		return out
	}
	r := rng.New(11)
	for p := 1; p <= 9; p++ {
		for _, n := range append([]int{1300}, lengths...) {
			for _, salted := range []bool{false, true} {
				srcs := make([][]float32, p)
				for s := range srcs {
					srcs[s] = randVec(r, n)
				}
				ordinary := 0
				for i := 0; i < n; i++ {
					for s := range srcs {
						if k := (i + 3*s + n) % 37; salted && k < len(specials) && (k != len(specials)-1 || s == 0) {
							srcs[s][i] = specials[k]
						}
					}
					if !salted && p >= 3 && i%2 == 0 {
						srcs[0][i] *= 1 << 40
						srcs[p-1][i] = -srcs[0][i]
					}
					finite := true
					for s := range srcs {
						finite = finite && math.Abs(float64(srcs[s][i])) < math.MaxFloat32
					}
					if finite {
						ordinary++
					}
				}
				if n >= 37 && ordinary == 0 {
					t.Fatalf("p=%d n=%d: the salt leaves no finite coordinate", p, n)
				}
				order := make([]int, p)
				for s := range order {
					order[s] = s
				}
				if !salted && p >= 3 && n == 1300 {
					// Adding the cancelling pair first changes the bits, so
					// the comparison below pins the source order.
					other := append([]int{0, p - 1}, order[1:p-1]...)
					seq, alt := reference(srcs, nil, order), reference(srcs, nil, other)
					same := true
					for i := range seq {
						same = same && math.Float32bits(seq[i]) == math.Float32bits(alt[i])
					}
					if same {
						t.Fatalf("p=%d: the inputs do not depend on the source order", p)
					}
				}
				scales := make([]float64, p)
				for s := range scales {
					scales[s] = float64(s+1) / float64(p+2)
				}
				for _, sc := range [][]float64{nil, scales} {
					want := reference(srcs, sc, order)
					eachForm(func(form string) {
						dst := make([]float32, n)
						CanonicalAccumulate(dst, srcs, sc)
						root := append([]float32(nil), srcs[0]...)
						CanonicalAccumulate(root, append([][]float32{root}, srcs[1:]...), sc)
						for i := range want {
							if math.Float32bits(dst[i]) != math.Float32bits(want[i]) || math.Float32bits(root[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s p=%d n=%d salted=%v scaled=%v coord %d: %#08x (in place %#08x), scalar %#08x",
									form, p, n, salted, sc != nil, i, math.Float32bits(dst[i]), math.Float32bits(root[i]), math.Float32bits(want[i]))
							}
						}
					})
				}
			}
		}
	}
}

func TestPairwiseSumAndDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PairwiseSumAndDot accepted mismatched lengths")
		}
	}()
	PairwiseSumAndDot(make([]float32, 3), make([]float32, 4))
}

// pairwiseSumSq is the separate squared-sum kernel PairwiseSumAndSq
// replaced, kept as written: the fused pass must reproduce its bits.
func pairwiseSumSq(x []float32) float32 {
	if len(x) <= blockN {
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+4 <= len(x); i += 4 {
			s0 += x[i] * x[i]
			s1 += x[i+1] * x[i+1]
			s2 += x[i+2] * x[i+2]
			s3 += x[i+3] * x[i+3]
		}
		for ; i < len(x); i++ {
			s0 += x[i] * x[i]
		}
		return (s0 + s1) + (s2 + s3)
	}
	h := splitPoint(len(x))
	return pairwiseSumSq(x[:h]) + pairwiseSumSq(x[h:])
}

// TestFusedPairwiseMatchSeparate holds the one-pass statistics kernels to
// the separate sums they replaced, bit for bit, in every form of their
// leaves the CPU runs (see eachForm): PairwiseSumAndSq to PairwiseSum and
// pairwiseSumSq, PairwiseSumAndDot to PairwiseSum and pairwiseDot, at
// every length through 1100 (the base case with each tail of 0–3, the
// first splits around 128 and 256, up to nine leaves, and BatchNorm's
// 12×12 and 24×24 planes), on values of mixed magnitude with signed zeros
// and ties planted.
func TestFusedPairwiseMatchSeparate(t *testing.T) {
	r := rng.New(21)
	for n := 0; n <= 1100; n++ {
		x, y := randVec(r, n), randVec(r, n)
		for i := range x {
			switch i % 9 {
			case 2:
				x[i] = float32(math.Copysign(0, float64(x[i])))
			case 5:
				x[i] *= 1 << 12
			case 7:
				x[i] = x[i-1]
			}
		}
		bits := math.Float32bits
		sum, sq, dot := PairwiseSum(x), pairwiseSumSq(x), pairwiseDot(x, y)
		eachForm(func(form string) {
			if s, q := PairwiseSumAndSq(x); bits(s) != bits(sum) || bits(q) != bits(sq) {
				t.Fatalf("%s n=%d: PairwiseSumAndSq = (%v, %v), separate (%v, %v)", form, n, s, q, sum, sq)
			}
			if s, d := PairwiseSumAndDot(x, y); bits(s) != bits(sum) || bits(d) != bits(dot) {
				t.Fatalf("%s n=%d: PairwiseSumAndDot = (%v, %v), separate (%v, %v)", form, n, s, d, sum, dot)
			}
		})
	}
}
