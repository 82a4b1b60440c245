//go:build amd64

package kernel

// roundHalfVec is RoundHalf's SSE2 kernel (half_amd64.s). It rounds the
// leading multiple of four elements lane by lane with the scalar
// converters' own arithmetic, branches turned into mask selects, and
// returns how many it wrote; RoundHalf finishes the tail with the scalar
// path. So every element's bits are those of
// HalfToFloat32(Float32ToHalf(x)), which TestBatchedConvertersMatchScalar
// and FuzzHalfConverters check.
//
//go:noescape
func roundHalfVec(x []float32) int
