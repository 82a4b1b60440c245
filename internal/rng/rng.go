// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// Reproducibility is a hard requirement for the experiments in this repo:
// every dataset, weight initialization, shuffle and augmentation must be a
// pure function of an explicit seed so that training runs, multi-worker runs
// and property tests are replayable bit-for-bit. The standard library's
// math/rand/v2 would work, but a local SplitMix64 keeps the sequence stable
// across Go releases and lets us derive independent child streams cheaply.
// Every product that can feed an add — Float64's scaled integer, the
// Box-Muller terms — is converted explicitly (float64(u*u)), so that no
// compiler fuses it into a multiply-add (arm64 would) and draws a different
// sequence than the amd64 and 386 builds.
package rng

import "math"

// Rand is a deterministic pseudo-random generator based on SplitMix64.
// The zero value is a valid generator seeded with 0; prefer New.
type Rand struct {
	state uint64
	// spare holds a cached second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent child generator from r. The child's stream is
// decorrelated from the parent's by mixing the parent's next output with a
// distinct odd constant, so workers seeded via successive Split calls do not
// share sequences.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float32 returns a uniform value in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// NormFloat32 returns a standard normal variate as a float32.
func (r *Rand) NormFloat32() float32 {
	return float32(r.NormFloat64())
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place using a Fisher-Yates shuffle.
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}
