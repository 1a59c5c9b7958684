// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used throughout the simulator.
//
// The standard library's math/rand is avoided for two reasons: its global
// generator is shared mutable state, and its exact output sequence is not
// guaranteed to stay stable across Go releases for all helper methods.
// Reproducibility of simulation runs is a hard requirement here — a run
// must be a pure function of (machine, workload, balancer, seed) — so we
// implement xoshiro256** directly. The generator is splittable: derived
// generators for independent actors (one per balancer thread, one per
// application) are produced with Split, so adding an actor never perturbs
// the stream seen by the others.
package xrand

import "math"

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is invalid; use New.
type RNG struct {
	s [4]uint64
}

// splitmix64 is used to seed the xoshiro state from a single word, and to
// derive split streams. It is the reference seeding procedure recommended
// by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// A pathological all-zero state cannot occur: splitmix64 is a
	// bijection over a counter, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's. The receiver advances by one step.
func (r *RNG) Split() *RNG {
	x := r.Uint64()
	return New(splitmix64(&x))
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns a duration-like value in [0, max). It is sugar for
// Int63n with a zero-tolerant max: Jitter(0) is 0.
func (r *RNG) Jitter(max int64) int64 {
	if max <= 0 {
		return 0
	}
	return r.Int63n(max)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Exponential returns an exponentially distributed float64 with the
// given rate (mean 1/rate), via the inverse CDF: −ln(1−U)/rate. The
// inverse-transform method consumes exactly one uniform draw per
// variate, so a stream of inter-arrival times advances the generator a
// fixed, predictable number of steps — the property the open-system
// workload generator relies on for per-stream golden tests. math.Log is
// tightly specified, so results are deterministic across platforms. It
// panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exponential with non-positive rate")
	}
	// Float64 is in [0, 1), so 1−u is in (0, 1] and the log is finite.
	return -math.Log(1-r.Float64()) / rate
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method. Used to model
// measurement noise in thread-speed samples (the paper notes taskstats
// readings are noisy).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// math.Sqrt is correctly rounded and math.Log is tightly
		// specified, so results are deterministic across platforms.
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
