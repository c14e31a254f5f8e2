// Package rng provides the deterministic pseudo-random generators used by
// the workload generator and executor. Everything in the reproduction flows
// from explicit 64-bit seeds so that every experiment is bit-for-bit
// repeatable across runs and platforms; math/rand is avoided to keep the
// sequence independent of Go version and to allow very cheap value types.
package rng

// SplitMix64 advances the SplitMix64 state and returns the next value. It is
// used to derive independent child seeds from a parent seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a small, fast xoshiro256**-style generator.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64 (so nearby seeds
// yield unrelated streams).
func New(seed uint64) *Rand {
	var r Rand
	st := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&st)
	}
	// A xoshiro state of all zeros is a fixed point; SplitMix64 never
	// produces four zeros from any input, but keep the guard explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// IntBetween returns a uniform integer in [lo, hi] inclusive.
func (r *Rand) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Geometric returns a sample from a geometric-ish distribution with the
// given mean ≥ 1 (number of trials until success), capped at cap to bound
// run time. Used for loop trip counts.
func (r *Rand) Geometric(mean float64, cap int) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for n < cap && !r.Bool(p) {
		n++
	}
	return n
}

// Categorical samples an index from the (unnormalized) weight vector w.
// The cumulative table should be precomputed with NewCategorical when
// sampling repeatedly.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a sampler over the unnormalized weights w.
func NewCategorical(w []float64) *Categorical {
	cum := make([]float64, len(w))
	var t float64
	for i, v := range w {
		if v < 0 {
			panic("rng: negative weight")
		}
		t += v
		cum[i] = t
	}
	if t == 0 {
		panic("rng: all-zero weights")
	}
	return &Categorical{cum: cum}
}

// Sample draws an index distributed according to the weights.
func (c *Categorical) Sample(r *Rand) int {
	total := c.cum[len(c.cum)-1]
	x := r.Float64() * total
	// Binary search for the first cum > x.
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ZipfWeights returns k unnormalized Zipf(s) popularity weights:
// w[i] = 1/(i+1)^s. s = 0 is uniform; larger s is more skewed.
func ZipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / powF(float64(i+1), s)
	}
	return w
}

// powF is a minimal positive-base power via exp/log-free repeated squaring
// for integral exponents and a series fallback otherwise; precision needs
// here are modest (sampling weights).
func powF(base, exp float64) float64 {
	if base <= 0 {
		panic("rng: powF base must be positive")
	}
	// Integral fast path.
	if exp == float64(int(exp)) && exp >= 0 && exp < 64 {
		r := 1.0
		for i := 0; i < int(exp); i++ {
			r *= base
		}
		return r
	}
	return Exp(exp * Ln(base))
}

// Ln computes the natural log with the atanh series. It is bit-exact across
// platforms and Go versions (math.Log is not guaranteed to be), which is why
// every seeded computation in the module takes its logarithms from here.
func Ln(x float64) float64 {
	if x <= 0 {
		panic("rng: Ln domain")
	}
	// Normalize x into [0.5, 2) collecting powers of 2.
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 0.5 {
		x *= 2
		k--
	}
	const ln2 = 0.6931471805599453
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 60; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	return 2*sum + float64(k)*ln2
}

// Exp computes e^x by scaling and Taylor series; bit-exact like Ln.
func Exp(x float64) float64 {
	neg := x < 0
	if neg {
		x = -x
	}
	n := 0
	for x > 0.5 {
		x /= 2
		n++
	}
	sum, term := 1.0, 1.0
	for i := 1; i < 30; i++ {
		term *= x / float64(i)
		sum += term
	}
	for i := 0; i < n; i++ {
		sum *= sum
	}
	if neg {
		return 1 / sum
	}
	return sum
}
