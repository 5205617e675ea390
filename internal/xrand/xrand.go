// Package xrand provides small, fast, deterministic pseudo-random number
// generators for the simulator. Every source of randomness in the repository
// flows through this package so that a run is a pure function of its seed.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill 2014) seeded through SplitMix64,
// which gives independent streams for (seed, stream) pairs. math/rand is
// deliberately not used: its global state and historical seeding behaviour
// make reproducibility across package boundaries fragile.
package xrand

// RNG is a PCG-XSH-RR 64/32 generator. The zero value is not ready for use;
// construct one with New.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// splitmix64 is used to derive well-distributed initial state from arbitrary
// seeds, including small integers like 0, 1, 2.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator for the given seed and stream. Distinct streams
// with the same seed produce statistically independent sequences; the
// simulator gives every thread its own stream.
func New(seed, stream uint64) *RNG {
	r := &RNG{}
	r.inc = (splitmix64(stream)<<1 | 1)
	r.state = 0
	r.next() // advance past the all-zero state
	r.state += splitmix64(seed)
	r.next()
	return r
}

func (r *RNG) next() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 { return r.next() }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.next())
	lo := uint64(r.next())
	return hi<<32 | lo
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint32(n)
	// Fast path for power-of-two bounds.
	if bound&(bound-1) == 0 {
		return int(r.next() & (bound - 1))
	}
	threshold := -bound % bound
	for {
		v := r.next()
		m := uint64(v) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	max := uint64(1)<<63 - 1
	limit := max - max%uint64(n)
	for {
		v := r.Uint64() >> 1
		if v <= limit {
			return int64(v % uint64(n))
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns a value in [0, max) used to perturb start times between
// runs. A zero max returns zero, so callers need not special-case
// deterministic configurations.
func (r *RNG) Jitter(max int64) int64 {
	if max <= 0 {
		return 0
	}
	return r.Int63n(max)
}
