// Package rng provides deterministic, seed-splittable random number streams
// used by every stochastic component of the repository. Experiments split one
// master seed into independent child streams (one per run, per party, per
// model) so that results regenerate bit-identically regardless of goroutine
// scheduling or evaluation order.
package rng

import (
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps a PCG generator and adds
// the distribution helpers the simulators need. Source is not safe for
// concurrent use; split independent children instead of sharing one stream.
type Source struct {
	r *rand.Rand
	// pcg is the same generator r draws from, retained so the stream's
	// position can be snapshotted and restored (State/SetState). rand.Rand
	// in math/rand/v2 keeps no state of its own — every variate, including
	// NormFloat64's ziggurat, draws directly from the source — so the PCG
	// state is the complete stream state.
	pcg *rand.PCG
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	return fromPCG(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func fromPCG(p *rand.PCG) *Source {
	return &Source{r: rand.New(p), pcg: p}
}

// State returns an opaque snapshot of the stream's position. A Source
// restored from it (SetState) continues the exact variate sequence this one
// would have produced.
func (s *Source) State() ([]byte, error) {
	return s.pcg.MarshalBinary()
}

// SetState repositions the stream to a snapshot taken with State.
func (s *Source) SetState(b []byte) error {
	return s.pcg.UnmarshalBinary(b)
}

// DeriveSeed deterministically mixes a master seed with a stream index into
// an independent child seed (splitmix64 finalizer). It is the seed-derivation
// rule batch runners use to give session k of a batch its own stream: results
// depend only on (master, stream), never on scheduling, so batches replay
// bit-identically at any worker count.
func DeriveSeed(master, stream uint64) uint64 {
	z := master ^ (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream from s and the given label.
// Splitting with different labels yields streams that are independent for all
// practical purposes; splitting with the same label twice yields identical
// streams (which is the point: a run can be reproduced piecewise).
func (s *Source) Split(label uint64) *Source {
	// Mix the label through splitmix64 so labels 0,1,2... land far apart.
	z := label + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fromPCG(rand.NewPCG(s.r.Uint64()^z, z))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 { return lo + float64((hi-lo)*s.r.Float64()) }

// Norm returns a standard normal variate.
func (s *Source) Norm() float64 { return s.r.NormFloat64() }

// Gauss returns a normal variate with the given mean and standard deviation.
func (s *Source) Gauss(mean, std float64) float64 { return mean + float64(std*s.r.NormFloat64()) }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Choice returns a random index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero; if all
// weights are zero the choice is uniform.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.IntN(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample requires 0 <= k <= n")
	}
	// Partial Fisher–Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// LogNormal returns exp(N(mu, sigma)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Gauss(mu, sigma))
}

// Beta returns a Beta(a, b) variate via the ratio-of-gammas method.
// It panics if a <= 0 or b <= 0.
func (s *Source) Beta(a, b float64) float64 {
	x := s.Gamma(a)
	y := s.Gamma(b)
	return x / (x + y)
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang method.
// It panics if shape <= 0.
func (s *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma requires shape > 0")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := s.r.Float64()
		return s.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	// Every product that feeds an add or a subtraction is rounded by an
	// explicit float64 conversion, so arm64 fuses none of them into a
	// multiply-add and draws the same variates as amd64.
	for {
		x := s.Norm()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-float64(v)+math.Log(v))) {
			return d * v
		}
	}
}
