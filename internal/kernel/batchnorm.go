package kernel

// Normalize is BatchNorm's per-element pass over one contiguous segment of
// a channel: y[i] = float32(γ·((x[i]−μ)·inv)) + β, and, when xhat is
// non-nil, xhat[i] = (x[i]−μ)·inv, the x̂ a training Backward reads. Eval
// and training spell the same expression, so y has the same bits either
// way. With AVX2, normalizeVec takes the leading multiple of eight elements
// and normalizeScalar the tail; otherwise the scalar loop takes every
// element. y may be x itself; otherwise y, xhat and x must not overlap.
func Normalize(y, xhat, x []float32, mu, inv, gamma, beta float32) {
	if len(y) != len(x) || (xhat != nil && len(xhat) != len(x)) {
		panic("kernel: Normalize length mismatch")
	}
	i := normalizeVec(y, xhat, x, mu, inv, gamma, beta)
	if xhat != nil {
		xhat = xhat[i:]
	}
	normalizeScalar(y[i:], xhat, x[i:], mu, inv, gamma, beta)
}

// NormalizeGrad is BatchNorm's input gradient over one contiguous segment
// of a channel, given the channel's γ·inv and its means of dy and of dy·x̂:
// dx[i] = gi·((dy[i]−meanDy) − float32(xhat[i]·meanDyXhat)). With AVX2,
// normalizeGradVec takes the leading multiple of eight elements.
func NormalizeGrad(dx, dy, xhat []float32, gi, meanDy, meanDyXhat float32) {
	if len(dy) != len(dx) || len(xhat) != len(dx) {
		panic("kernel: NormalizeGrad length mismatch")
	}
	i := normalizeGradVec(dx, dy, xhat, gi, meanDy, meanDyXhat)
	normalizeGradScalar(dx[i:], dy[i:], xhat[i:], gi, meanDy, meanDyXhat)
}

// normalizeVec runs Normalize's AVX2 kernel (batchnorm_amd64.s) over the
// leading multiple of eight elements and returns how many it wrote: none
// without AVX2. The kernel is a rounded VSUBPS, VMULPS, VMULPS and VADDPS
// per lane, no FMA, each with the element as the first source and the
// broadcast constant as the second, which is the order the compiled scalar
// loop keeps; x̂ is stored from the register the second multiply reads. The
// lengths are Normalize's, validated.
func normalizeVec(y, xhat, x []float32, mu, inv, gamma, beta float32) int {
	if !useAVX2 {
		return 0
	}
	return normalizeAVX2(y, xhat, x, mu, inv, gamma, beta)
}

// normalizeGradVec runs NormalizeGrad's AVX2 kernel over the leading
// multiple of eight elements and returns how many it wrote: none without
// AVX2. Its two subtracts and two multiplies have the scalar loop's
// operands in its order, dy and the difference as the first sources. The
// lengths are NormalizeGrad's, validated.
func normalizeGradVec(dx, dy, xhat []float32, gi, meanDy, meanDyXhat float32) int {
	if !useAVX2 {
		return 0
	}
	return normalizeGradAVX2(dx, dy, xhat, gi, meanDy, meanDyXhat)
}

// normalizeScalar is Normalize's Go loop; a nil xhat skips the x̂ store.
// The product γ·x̂ is converted to float32 explicitly, which forbids the
// compiler from fusing it into the add (arm64 would).
func normalizeScalar(y, xhat, x []float32, mu, inv, gamma, beta float32) {
	y = y[:len(x)]
	if xhat == nil {
		for i, v := range x {
			y[i] = float32(gamma*((v-mu)*inv)) + beta
		}
		return
	}
	xhat = xhat[:len(x)]
	for i, v := range x {
		xh := (v - mu) * inv
		xhat[i] = xh
		y[i] = float32(gamma*xh) + beta
	}
}

// normalizeGradScalar is NormalizeGrad's Go loop, the product converted
// explicitly as in normalizeScalar.
func normalizeGradScalar(dx, dy, xhat []float32, gi, meanDy, meanDyXhat float32) {
	dy, xhat = dy[:len(dx)], xhat[:len(dx)]
	for i, d := range dy {
		dx[i] = gi * (d - meanDy - float32(xhat[i]*meanDyXhat))
	}
}
