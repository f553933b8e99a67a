// Package xrand provides a small deterministic pseudo-random number
// generator used throughout the reproduction.
//
// The whole experiment pipeline — workload synthesis, profiling runs,
// evaluation traces — must be bit-for-bit reproducible across machines
// and Go releases. math/rand's generator is stable in practice but its
// convenience APIs (Shuffle, Perm) have changed behaviour between
// releases in the past, so we pin our own splitmix64-based generator
// with exactly the operations the repository needs.
package xrand

// RNG is a deterministic pseudo-random number generator based on
// splitmix64 (Steele, Lea, Flood; "Fast Splittable Pseudorandom Number
// Generators"). It is small, fast, and passes BigCrush when used as a
// 64-bit generator, which is far more quality than workload synthesis
// requires.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed. Distinct seeds yield
// uncorrelated streams for this generator family.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed returns a seed that is a deterministic function of base and the
// given stream labels, in order. It gives every benchmark, run and pass
// its own independent stream.
func Seed(base uint64, labels ...uint64) uint64 {
	s := base
	for _, l := range labels {
		s = mix(s ^ mix(l))
	}
	return s
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64-bit value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// IntRange returns a uniformly distributed value in [lo, hi]. It
// panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Shuffle pseudo-randomly permutes the order of n elements using the
// provided swap function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Choose returns an index in [0, len(weights)) with probability
// proportional to weights[i]. All weights must be non-negative and at
// least one must be positive.
func (r *RNG) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("xrand: Choose with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Choose with no positive weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
