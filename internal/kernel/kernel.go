// Package kernel holds the repository's hot numeric inner loops — the
// float32 summation and GEMM micro-kernels every higher layer (tensor, nn,
// dist, compress) funnels through — plus the per-step phase profiler that
// attributes hot-loop wall time to gemm/im2col/reduce/codec phases.
//
// Two reduction disciplines live here:
//
//   - CanonicalAccumulate — the engine's historical semantics: a strict
//     left-to-right sum in source order with float64 accumulation. It is
//     bit-compatible with the scalar loops it replaced; the speedup comes
//     from restructuring the per-coordinate source loop (a serial float64
//     dependency chain) into blocked row-wise passes the CPU can pipeline.
//
//   - PairwiseSum / PairwiseSumAndSq / PairwiseSumAndDot /
//     PairwiseAccumulate — a fixed-shape pairwise-tree float32 summation
//     with unrolled multi-accumulator base blocks. The tree shape is a pure
//     function of the input length (for the vector sums) or the source
//     count (for Accumulate) — never of worker count, goroutine chunking,
//     or slice position — so results are bit-identical however the
//     surrounding code parallelizes or shards, while the error stays
//     O(log n)·ε instead of the naive sum's O(n)·ε.
//
// Each hot kernel has two forms: an AVX2 one in assembly and a Go loop. The
// GEMM register tiles (NN/TN's 4×16 strip of C and NT's two-row dotTile),
// axpyQuad, the one-row axpy, RoundHalf, the canonical reduce of both wires
// (CanonicalAccumulate and CanonicalAccumulateHalf), ReLU, ReLUBackward,
// MaxPool2x2 (2×2/2 max pooling with its argmax), the Momentum update and
// BatchNorm's Normalize and NormalizeGrad run eight lanes wide with AVX2
// when CPUID and XGETBV report it (read once, at package init, into
// useAVX2), and the leaves of PairwiseSumAndSq and PairwiseSumAndDot four
// lanes wide, two leaves at a time; otherwise each runs the same Go loop
// the portable build runs. None uses FMA: every form does the
// scalar loop's rounded multiplies and adds in its order, so every form
// gives the same bits, and the Go loops convert each product explicitly so
// that no compiler fuses them.
//
// Everything in this package is serial and allocation-free on the hot path
// (a small pooled scratch backs the pairwise tree); callers own the
// parallel decomposition and may invoke the kernels concurrently on
// disjoint outputs.
package kernel

import "sync"

// blockN is the pairwise tree's base-case length: blocks this short are
// summed directly with four independent accumulators (breaking the serial
// dependency chain), and longer inputs split at a blockN-aligned midpoint.
// It is part of the tree-shape contract: changing it changes results.
const blockN = 128

// splitPoint returns where a pairwise tree over n > blockN elements splits:
// the left child takes ⌈blocks/2⌉ full base blocks. A pure function of n.
func splitPoint(n int) int {
	blocks := (n + blockN - 1) / blockN
	return (blocks + 1) / 2 * blockN
}

// PairwiseSum returns the fixed-tree pairwise float32 sum of x. The
// summation tree depends only on len(x), so the result is a pure function
// of the values — independent of where the slice sits in a larger buffer
// and of any parallel chunking the caller performs around it.
func PairwiseSum(x []float32) float32 {
	if len(x) <= blockN {
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+4 <= len(x); i += 4 {
			s0 += x[i]
			s1 += x[i+1]
			s2 += x[i+2]
			s3 += x[i+3]
		}
		for ; i < len(x); i++ {
			s0 += x[i]
		}
		return (s0 + s1) + (s2 + s3)
	}
	h := splitPoint(len(x))
	return PairwiseSum(x[:h]) + PairwiseSum(x[h:])
}

// PairwiseSumAndSq returns PairwiseSum(x) and the fixed-tree pairwise sum
// of x[i]² in one pass: both walk the same splitPoint tree with the same
// four-accumulator base case, so each is bit for bit the sum it would be
// on its own, while x is read once. The leaves are sumSqLeaf's; with AVX2
// sumSqLeavesAVX2 (batchnorm_amd64.s) runs them, both leaves of a node at
// once when neither is split further.
func PairwiseSumAndSq(x []float32) (sum, sq float32) {
	switch {
	case len(x) <= blockN:
		if useAVX2 {
			sum, sq, _, _ = sumSqLeavesAVX2(x, len(x))
			return sum, sq
		}
		return sumSqLeaf(x)
	case useAVX2 && len(x) <= 2*blockN:
		// splitPoint is blockN here, so both children are leaves.
		ls, lq, rs, rq := sumSqLeavesAVX2(x, blockN)
		return ls + rs, lq + rq
	}
	h := splitPoint(len(x))
	ls, lq := PairwiseSumAndSq(x[:h])
	rs, rq := PairwiseSumAndSq(x[h:])
	return ls + rs, lq + rq
}

// sumSqLeaf is PairwiseSumAndSq's base case over len(x) ≤ blockN
// elements: four strided accumulators for the sum and four for the
// squares, the tail into the first, finished as (s0+s1)+(s2+s3). It is the
// Go twin of sumSqLeavesAVX2, which keeps a leaf's s0..s3 and q0..q3 in the
// lanes of two XMM registers and issues the same rounded adds and
// multiplies in the same order.
func sumSqLeaf(x []float32) (sum, sq float32) {
	var s0, s1, s2, s3, q0, q1, q2, q3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		s0 += x0
		s1 += x1
		s2 += x2
		s3 += x3
		q0 += float32(x0 * x0)
		q1 += float32(x1 * x1)
		q2 += float32(x2 * x2)
		q3 += float32(x3 * x3)
	}
	for ; i < len(x); i++ {
		s0 += x[i]
		q0 += float32(x[i] * x[i])
	}
	return (s0 + s1) + (s2 + s3), (q0 + q1) + (q2 + q3)
}

// PairwiseSumAndDot returns PairwiseSum(x) and the fixed-tree pairwise dot
// product Σ x[i]·y[i] (pairwiseDot's bits) in one pass over equal-length
// slices, with PairwiseSumAndSq's one-tree contract.
func PairwiseSumAndDot(x, y []float32) (sum, dot float32) {
	if len(x) != len(y) {
		panic("kernel: PairwiseSumAndDot length mismatch")
	}
	return pairwiseSumAndDot(x, y)
}

func pairwiseSumAndDot(x, y []float32) (sum, dot float32) {
	switch {
	case len(x) <= blockN:
		if useAVX2 {
			sum, dot, _, _ = sumDotLeavesAVX2(x, y[:len(x)], len(x))
			return sum, dot
		}
		return sumDotLeaf(x, y)
	case useAVX2 && len(x) <= 2*blockN:
		ls, ld, rs, rd := sumDotLeavesAVX2(x, y[:len(x)], blockN)
		return ls + rs, ld + rd
	}
	h := splitPoint(len(x))
	ls, ld := pairwiseSumAndDot(x[:h], y[:h])
	rs, rd := pairwiseSumAndDot(x[h:], y[h:])
	return ls + rs, ld + rd
}

// sumDotLeaf is pairwiseSumAndDot's base case over len(x) ≤ blockN
// elements, sumSqLeaf's shape with the products x[i]·y[i]. It is the Go
// twin of sumDotLeavesAVX2 (the callers' slicing of y to len(x) bounds the
// assembly's reads).
func sumDotLeaf(x, y []float32) (sum, dot float32) {
	y = y[:len(x)]
	var s0, s1, s2, s3, d0, d1, d2, d3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		s0 += x0
		s1 += x1
		s2 += x2
		s3 += x3
		d0 += float32(x0 * y[i])
		d1 += float32(x1 * y[i+1])
		d2 += float32(x2 * y[i+2])
		d3 += float32(x3 * y[i+3])
	}
	for ; i < len(x); i++ {
		s0 += x[i]
		d0 += float32(x[i] * y[i])
	}
	return (s0 + s1) + (s2 + s3), (d0 + d1) + (d2 + d3)
}

// pairwiseDot returns the fixed-tree pairwise dot product Σ x[i]·y[i] for
// equal-length slices, with the same tree-shape contract as PairwiseSum. It
// is the NT GEMM's per-element sum.
func pairwiseDot(x, y []float32) float32 {
	if len(x) <= blockN {
		return baseDot(x, y)
	}
	h := splitPoint(len(x))
	return pairwiseDot(x[:h], y[:h]) + pairwiseDot(x[h:], y[h:])
}

// baseDot is the pairwise dot's base case: four strided partial sums, the
// tail into the first, finished as (s0+s1)+(s2+s3).
func baseDot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += float32(x[i] * y[i])
		s1 += float32(x[i+1] * y[i+1])
		s2 += float32(x[i+2] * y[i+2])
		s3 += float32(x[i+3] * y[i+3])
	}
	for ; i < len(x); i++ {
		s0 += float32(x[i] * y[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// pairwiseDotTile writes pairwiseDot(a_r, b_c) into s[8·r + c] for one or
// two rows a0, a1 (rows; a1 is read only when rows is 2, and must be as
// long as a0) against the eight columns b_c = b[c·ldb : c·ldb+len(a0)]. It
// walks the splitPoint tree once for the whole tile, with dot_amd64.s's
// dotTileAVX2 at the leaves when the CPU has AVX2 (the slicing bounds every
// read of the assembly) and dotTile otherwise, so each sum is bit-identical
// to its scalar pairwiseDot while the recursion is paid once per sixteen
// outputs.
func pairwiseDotTile(s *[16]float32, a0, a1, b []float32, ldb, rows int) {
	if k := len(a0); k <= blockN {
		if useAVX2 {
			dotTileAVX2(s, a0, a1[:k], b[:7*ldb+k], ldb, rows)
		} else {
			dotTile(s, a0, a1, b, ldb, rows)
		}
		return
	}
	h := splitPoint(len(a0))
	var r [16]float32
	pairwiseDotTile(s, a0[:h], a1[:h], b, ldb, rows)
	pairwiseDotTile(&r, a0[h:], a1[h:], b[h:], ldb, rows)
	addSums(s[:8*rows], r[:8*rows])
}

// dotTile writes pairwiseDot's base case for a tile of one or two rows
// against eight columns, each column summed as baseDot sums it: s[8·r + c]
// = Σ a_r[i]·b[c·ldb + i] over len(a0) ≤ blockN elements. rows is 1 or 2;
// with one row a1 is read for its length only and s[8:] is left alone. It
// is the Go form of dotTileAVX2: the same multiplies and adds in the same
// order.
func dotTile(s *[16]float32, a0, a1, b []float32, ldb, rows int) {
	k := len(a0)
	for c := 0; c < 8; c++ {
		bc := b[c*ldb : c*ldb+k]
		s[c] = baseDot(a0, bc)
		if rows == 2 {
			s[8+c] = baseDot(a1[:k], bc)
		}
	}
}

// accScratch pools the temporary rows the pairwise source tree combines
// through; Accumulate runs per bucket per step in the engine's hot
// reduction path, and a fresh allocation there would be pure GC churn.
var accScratch = sync.Pool{New: func() any { return new([]float32) }}

// PairwiseAccumulate sets dst[i] = Σ_s scales[s]·srcs[s][i], combining the
// sources in a fixed pairwise tree over the source index: sources split
// ⌈p/2⌉/⌊p/2⌋ recursively and leaves combine in order. The tree depends
// only on len(srcs), and each coordinate is computed independently, so
// results are bit-identical however the caller chunks the coordinate range
// (parallel workers may call it on disjoint subranges of dst and the
// matching subslices of srcs). A nil scales means unscaled (all ones).
// dst may alias srcs[0]; every source must have len(dst) elements.
func PairwiseAccumulate(dst []float32, srcs [][]float32, scales []float32) {
	if scales != nil && len(scales) != len(srcs) {
		panic("kernel: PairwiseAccumulate needs one scale per source")
	}
	checkSources("PairwiseAccumulate", dst, srcs)
	pairAcc(dst, srcs, scales, false)
}

// PairwiseAccumulateHalf is PairwiseAccumulate with every source value
// rounded through binary16 as the tree's leaves read it: bit for bit
// RoundHalf over each source followed by PairwiseAccumulate, with no source
// written. It is the pairwise reduce of the fp16 wire.
func PairwiseAccumulateHalf(dst []float32, srcs [][]float32, scales []float32) {
	if scales != nil && len(scales) != len(srcs) {
		panic("kernel: PairwiseAccumulateHalf needs one scale per source")
	}
	checkSources("PairwiseAccumulateHalf", dst, srcs)
	pairAcc(dst, srcs, scales, true)
}

// checkSources panics unless every source has len(dst) elements.
func checkSources(op string, dst []float32, srcs [][]float32) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("kernel: " + op + " source/dst length mismatch")
		}
	}
}

// scaleAt returns the s-th scale, defaulting to exactly 1 (1·x == x
// bitwise, so the nil-scales path is a pure tree sum).
func scaleAt(scales []float32, s int) float32 {
	if scales == nil {
		return 1
	}
	return scales[s]
}

// halfBlock is how many coordinates of each source the pairwise tree's
// leaves round through binary16 at a time, into a block on the stack.
const halfBlock = 256

// pairAcc is the pairwise source tree: sources split ⌈p/2⌉/⌊p/2⌋ down to
// leaves of at most four, which pairLeaf combines. Under half each leaf's
// sources are rounded through binary16 block by block into stack scratch
// (RoundHalf), and the leaf combines the rounded copies, so no source is
// written.
func pairAcc(dst []float32, srcs [][]float32, scales []float32, half bool) {
	if len(srcs) > 4 {
		h := (len(srcs) + 1) / 2
		var lhsScales, rhsScales []float32
		if scales != nil {
			lhsScales, rhsScales = scales[:h], scales[h:]
		}
		pairAcc(dst, srcs[:h], lhsScales, half)
		tp := accScratch.Get().(*[]float32)
		tmp := *tp
		if cap(tmp) < len(dst) {
			tmp = make([]float32, len(dst))
		}
		tmp = tmp[:len(dst)]
		pairAcc(tmp, srcs[h:], rhsScales, half)
		for i := range dst {
			dst[i] += tmp[i]
		}
		*tp = tmp
		accScratch.Put(tp)
		return
	}
	if !half {
		pairLeaf(dst, srcs, scales)
		return
	}
	var blk [4][halfBlock]float32
	var rounded [4][]float32
	for lo := 0; lo < len(dst); lo += halfBlock {
		hi := min(lo+halfBlock, len(dst))
		for k, src := range srcs {
			rounded[k] = blk[k][:hi-lo]
			copy(rounded[k], src[lo:hi])
			RoundHalf(rounded[k])
		}
		pairLeaf(dst[lo:hi], rounded[:len(srcs)], scales)
	}
}

// pairLeaf combines at most four sources in the tree's shape. Each product
// is converted to float32 explicitly, which forbids the compiler from
// fusing it into the add that follows (arm64 would), so every platform
// rounds both.
func pairLeaf(dst []float32, srcs [][]float32, scales []float32) {
	switch len(srcs) {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		s0, a := scaleAt(scales, 0), srcs[0]
		for i := range dst {
			dst[i] = s0 * a[i]
		}
	case 2:
		s0, s1 := scaleAt(scales, 0), scaleAt(scales, 1)
		a, b := srcs[0], srcs[1]
		for i := range dst {
			dst[i] = float32(s0*a[i]) + float32(s1*b[i])
		}
	case 3:
		// Same shape as the general split (⌈3/2⌉ = pair + single).
		s0, s1, s2 := scaleAt(scales, 0), scaleAt(scales, 1), scaleAt(scales, 2)
		a, b, c := srcs[0], srcs[1], srcs[2]
		for i := range dst {
			dst[i] = (float32(s0*a[i]) + float32(s1*b[i])) + float32(s2*c[i])
		}
	case 4:
		// Same shape as the general split (pair + pair).
		s0, s1 := scaleAt(scales, 0), scaleAt(scales, 1)
		s2, s3 := scaleAt(scales, 2), scaleAt(scales, 3)
		a, b, c, d := srcs[0], srcs[1], srcs[2], srcs[3]
		for i := range dst {
			dst[i] = (float32(s0*a[i]) + float32(s1*b[i])) + (float32(s2*c[i]) + float32(s3*d[i]))
		}
	}
}

// canonBlock is the row-blocking width of the canonical float64 pass: big
// enough to amortize the loop structure, small enough that the float64
// accumulator block lives on the stack and in L1.
const canonBlock = 512

// CanonicalAccumulate sets dst[i] = Σ_s scales[s]·float64(srcs[s][i]) in
// source order with float64 accumulation — the engine's canonical reduction
// semantics, bit-identical to the scalar per-coordinate loop it replaced.
// With nil scales the sum is unweighted and seeded from srcs[0] (matching
// the historical collective, where the root's own value starts the chain);
// with scales it starts from zero and accumulates every source. dst may
// alias srcs[0]; every source must have len(dst) elements.
//
// The restructuring — blocked row-wise passes over a float64 scratch block
// instead of a per-coordinate loop over sources — turns a serial
// float64-add dependency chain of length P per coordinate into independent
// streaming adds, which is where the measured speedup over the old
// canonicalSum comes from. With AVX2, canonicalVec goes further (see
// there).
func CanonicalAccumulate(dst []float32, srcs [][]float32, scales []float64) {
	if scales != nil && len(scales) != len(srcs) {
		panic("kernel: CanonicalAccumulate needs one scale per source")
	}
	if scales == nil && len(srcs) == 0 {
		panic("kernel: CanonicalAccumulate with nil scales needs a seed source")
	}
	checkSources("CanonicalAccumulate", dst, srcs)
	canonicalBlocks(dst, srcs, scales, canonicalVec(dst, srcs, scales, false), false)
}

// CanonicalAccumulateHalf is CanonicalAccumulate's weighted form with every
// source rounded through binary16 as it is read: dst[i] = Σ_s
// scales[s]·float64(HalfToFloat32(Float32ToHalf(srcs[s][i]))), from +0 in
// source order with float64 accumulation. Element for element those are the
// operations of RoundHalf over each source followed by CanonicalAccumulate,
// so the bits are theirs; but each source is read once, dst is written once
// and no source is written. It is the fp16 wire's reduce. scales must hold
// one weight per source; dst may alias srcs[0]; every source must have
// len(dst) elements.
func CanonicalAccumulateHalf(dst []float32, srcs [][]float32, scales []float64) {
	if scales == nil || len(scales) != len(srcs) {
		panic("kernel: CanonicalAccumulateHalf needs one scale per source")
	}
	checkSources("CanonicalAccumulateHalf", dst, srcs)
	canonicalBlocks(dst, srcs, scales, canonicalVec(dst, srcs, scales, true), true)
}

// canonicalVec runs the canonical reduce's AVX2 kernel (half_amd64.s) over
// the leading multiple of four coordinates and returns how many it wrote:
// none without AVX2 or sources. The kernel keeps eight coordinates' float64
// chains in two registers while the sources stream past — one pass, no
// scratch block, each value rounded through binary16 in register under
// half — with canonicalBlocks' operations in its order, so the bits are its
// own up to which payload two NaNs meeting keep; canonicalBlocks takes the
// tail. Arguments are validated by the caller.
func canonicalVec(dst []float32, srcs [][]float32, scales []float64, half bool) int {
	if !useAVX2 || len(srcs) == 0 {
		return 0
	}
	return canonicalAVX2(dst, srcs, scales, half)
}

// canonicalBlocks is the canonical reduce's blocked loop over coordinates
// [lo, len(dst)): seeded from srcs[0] when scales is nil, else from +0
// adding scales[s]·x, with each x rounded through binary16 first when half
// is set. Each product is converted to float64 explicitly, which forbids
// the compiler from fusing it into the add (arm64 would).
func canonicalBlocks(dst []float32, srcs [][]float32, scales []float64, lo int, half bool) {
	var acc [canonBlock]float64
	n := len(dst)
	for ; lo < n; lo += canonBlock {
		hi := lo + canonBlock
		if hi > n {
			hi = n
		}
		blk := acc[:hi-lo]
		start := 0
		if scales == nil {
			seed := srcs[0][lo:hi]
			for j, v := range seed {
				blk[j] = float64(v)
			}
			start = 1
		} else {
			for j := range blk {
				blk[j] = 0
			}
		}
		for s := start; s < len(srcs); s++ {
			row := srcs[s][lo:hi]
			switch {
			case scales == nil:
				for j, v := range row {
					blk[j] += float64(v)
				}
			case half:
				w := scales[s]
				for j, v := range row {
					blk[j] += float64(w * float64(HalfToFloat32(Float32ToHalf(v))))
				}
			default:
				w := scales[s]
				for j, v := range row {
					blk[j] += float64(w * float64(v))
				}
			}
		}
		out := dst[lo:hi]
		for j := range out {
			out[j] = float32(blk[j])
		}
	}
}
