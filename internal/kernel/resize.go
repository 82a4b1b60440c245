package kernel

// Deterministic plane resampling for the progressive-resolution data path.
//
// Both kernels walk output pixels in row-major order and, per output pixel,
// accumulate source taps in a fixed row-major order into a float64
// accumulator, rounding to float32 exactly once at the store. The result is
// therefore a pure function of (src, source dims, destination dims) — never
// of chunking or caller parallelism — which keeps resized batches inside
// the repo's bit-identity contract: any two runs that resize the same plane
// to the same shape see the same bytes.
//
// ResizeAreaPlane is exact box (pixel-area) averaging: each output pixel
// covers the continuous source rectangle
//
//	[oy·sh/dh, (oy+1)·sh/dh) × [ox·sw/dw, (ox+1)·sw/dw)
//
// and averages source pixels weighted by fractional overlap. For integer
// shrink factors this degenerates to the exact mean of an s×s block. It is
// the right kernel for downscaling (every source pixel contributes).
//
// ResizeBilinearPlane samples at half-pixel-aligned centers
// (align_corners=false): source coordinate (o+0.5)·s/d − 0.5, clamped
// 4-tap interpolation with float64 weights. It is the right kernel for
// upscaling (area degenerates to nearest-neighbour there).
//
// ResizePlane dispatches: identity copy when dims match, area when neither
// dimension grows, bilinear otherwise.

// ResizeAreaPlane box-resamples an sh×sw row-major plane into the dh×dw
// plane dst. dst must have length dh*dw and src length sh*sw; all dims
// must be positive. Accumulation is float64 in row-major source order.
func ResizeAreaPlane(dst []float32, dh, dw int, src []float32, sh, sw int) {
	if dh <= 0 || dw <= 0 || sh <= 0 || sw <= 0 {
		panic("kernel: ResizeAreaPlane dims must be positive")
	}
	if len(dst) < dh*dw || len(src) < sh*sw {
		panic("kernel: ResizeAreaPlane buffer too short")
	}
	if dh == sh && dw == sw {
		copy(dst[:dh*dw], src[:sh*sw])
		return
	}
	scaleY := float64(sh) / float64(dh)
	scaleX := float64(sw) / float64(dw)
	for oy := 0; oy < dh; oy++ {
		y0 := float64(oy) * scaleY
		y1 := float64(oy+1) * scaleY
		iy0, iy1 := spanBounds(y0, y1, sh)
		for ox := 0; ox < dw; ox++ {
			x0 := float64(ox) * scaleX
			x1 := float64(ox+1) * scaleX
			ix0, ix1 := spanBounds(x0, x1, sw)
			var acc, area float64
			for iy := iy0; iy < iy1; iy++ {
				wy := overlap1D(float64(iy), y0, y1)
				row := src[iy*sw:]
				for ix := ix0; ix < ix1; ix++ {
					w := float64(wy * overlap1D(float64(ix), x0, x1))
					acc += float64(w * float64(row[ix]))
					area += w
				}
			}
			dst[oy*dw+ox] = float32(acc / area)
		}
	}
}

// spanBounds returns the half-open integer pixel range [i0, i1) covering
// the continuous interval [a, b) within [0, n).
func spanBounds(a, b float64, n int) (int, int) {
	i0 := int(a)
	if i0 < 0 {
		i0 = 0
	}
	i1 := int(b)
	if b > float64(i1) {
		i1++
	}
	if i1 > n {
		i1 = n
	}
	if i1 <= i0 {
		i1 = i0 + 1
	}
	return i0, i1
}

// overlap1D is the length of the intersection of source pixel [i, i+1)
// with the continuous span [a, b).
func overlap1D(i, a, b float64) float64 {
	lo, hi := i, i+1
	if a > lo {
		lo = a
	}
	if b < hi {
		hi = b
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// ResizeBilinearPlane resamples an sh×sw row-major plane into the dh×dw
// plane dst with half-pixel-center bilinear interpolation
// (align_corners=false), edge-clamped. Weights and accumulation are
// float64; each output is rounded to float32 once.
func ResizeBilinearPlane(dst []float32, dh, dw int, src []float32, sh, sw int) {
	if dh <= 0 || dw <= 0 || sh <= 0 || sw <= 0 {
		panic("kernel: ResizeBilinearPlane dims must be positive")
	}
	if len(dst) < dh*dw || len(src) < sh*sw {
		panic("kernel: ResizeBilinearPlane buffer too short")
	}
	if dh == sh && dw == sw {
		copy(dst[:dh*dw], src[:sh*sw])
		return
	}
	scaleY := float64(sh) / float64(dh)
	scaleX := float64(sw) / float64(dw)
	for oy := 0; oy < dh; oy++ {
		sy := float64((float64(oy)+0.5)*scaleY) - 0.5
		y0, fy := tapAt(sy, sh)
		y1 := y0 + 1
		if y1 > sh-1 {
			y1 = sh - 1
		}
		r0 := src[y0*sw:]
		r1 := src[y1*sw:]
		for ox := 0; ox < dw; ox++ {
			sx := float64((float64(ox)+0.5)*scaleX) - 0.5
			x0, fx := tapAt(sx, sw)
			x1 := x0 + 1
			if x1 > sw-1 {
				x1 = sw - 1
			}
			top := float64((1-fx)*float64(r0[x0])) + float64(fx*float64(r0[x1]))
			bot := float64((1-fx)*float64(r1[x0])) + float64(fx*float64(r1[x1]))
			dst[oy*dw+ox] = float32(float64((1-fy)*top) + float64(fy*bot))
		}
	}
}

// tapAt clamps a continuous source coordinate to the valid tap range and
// returns the lower tap index and the fractional weight toward the upper.
func tapAt(s float64, n int) (int, float64) {
	if s < 0 {
		return 0, 0
	}
	i := int(s)
	if i > n-1 {
		return n - 1, 0
	}
	return i, s - float64(i)
}

// ResizePlane resamples an sh×sw plane to dh×dw: identity copy at equal
// dims, area averaging when neither dimension grows, bilinear otherwise.
// This is the dispatcher the data layer uses for schedule resizes.
func ResizePlane(dst []float32, dh, dw int, src []float32, sh, sw int) {
	switch {
	case dh == sh && dw == sw:
		copy(dst[:dh*dw], src[:sh*sw])
	case dh <= sh && dw <= sw:
		ResizeAreaPlane(dst, dh, dw, src, sh, sw)
	default:
		ResizeBilinearPlane(dst, dh, dw, src, sh, sw)
	}
}
