// Package rng provides deterministic, splittable pseudo-random number
// streams used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a run is
// identified by a single root seed, and every client, dataset, and round
// derives its own independent stream from that seed. The streams are based on
// SplitMix64 (for seeding/stream derivation) and a 128-bit xoshiro-style
// generator (for the bulk draws), both implemented here so results are
// identical on every platform regardless of Go's math/rand evolution.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a root seed into well-distributed stream seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rng is a deterministic pseudo-random generator (xoshiro256**).
// The zero value is not usable; construct with New or Derive.
type Rng struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical sequences.
func New(seed uint64) *Rng {
	var r Rng
	r.Reseed(seed)
	return &r
}

// Reseed reinitializes r in place to exactly the state New(seed)
// produces, discarding any cached Box-Muller spare. It is the
// allocation-free form hot paths use with a caller-owned Rng.
func (r *Rng) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
	r.spare = 0
}

// Derive returns a new independent generator identified by the given labels.
// It is the mechanism for building per-client / per-round streams:
//
//	clientRng := root.Derive(uint64(clientID), roundNum)
//
// Derive does not disturb the parent stream.
func (r *Rng) Derive(labels ...uint64) *Rng {
	var d Rng
	r.DeriveInto(&d, labels...)
	return &d
}

// DeriveInto reseeds dst to exactly the stream Derive(labels...) would
// return, without allocating a generator. dst may be r itself.
func (r *Rng) DeriveInto(dst *Rng, labels ...uint64) {
	seed := r.s[0] ^ 0x2545f4914f6cdd1d
	for _, l := range labels {
		seed ^= splitMix64(&l)
		seed = splitMix64(&seed)
	}
	dst.Reseed(seed)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rng) Uint64() uint64 {
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

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * (1.0 / (1 << 53)))
}

// NormFloat64 returns a standard normal deviate using Box-Muller.
func (r *Rng) NormFloat64() float64 {
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

// Perm returns a random permutation of [0, n).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills dst with a random permutation of [0, len(dst)), drawing
// exactly the variates Perm(len(dst)) draws — the allocation-free form
// for callers with a reusable buffer.
func (r *Rng) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Gamma draws from a Gamma(alpha, 1) distribution using the
// Marsaglia-Tsang method (with Johnk-style boosting for alpha < 1).
func (r *Rng) Gamma(alpha float64) float64 {
	if alpha <= 0 {
		panic("rng: Gamma with non-positive alpha")
	}
	if alpha < 1 {
		// boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// Dirichlet draws a probability vector from a symmetric Dirichlet(alpha)
// distribution of the given dimension.
func (r *Rng) Dirichlet(alpha float64, dim int) []float64 {
	if dim <= 0 {
		panic("rng: Dirichlet with non-positive dimension")
	}
	p := make([]float64, dim)
	var sum float64
	for i := range p {
		p[i] = r.Gamma(alpha)
		sum += p[i]
	}
	if sum == 0 {
		// Degenerate draw (all gammas underflowed): fall back to one-hot.
		p[r.Intn(dim)] = 1
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}
