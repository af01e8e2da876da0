package nn

import (
	"math"

	"repro/internal/tensor"
)

// The optimizers are bound to one parameter list at construction and keep
// their per-parameter state in flat slices indexed by that list's order.
// Each Step makes two passes over the gradients (one with clipping off):
// the global L2 norm, then one pass that clips, updates the weights and
// zeroes the gradient it consumed, so the next backward pass accumulates
// into clean tensors. No caller may read G after Step.

// clipScale returns the factor that brings the global L2 norm of params'
// gradients down to maxNorm, and whether any scaling applies: none when
// maxNorm is non-positive or the norm is within it. A NaN norm scales
// every gradient to NaN, as a separate clip pass would.
func clipScale(params []Param, maxNorm float64) (scale float64, clip bool) {
	if maxNorm <= 0 {
		return 1, false
	}
	sum := 0.0
	for _, p := range params {
		for _, g := range p.G {
			sum += float64(g * g)
		}
	}
	norm := math.Sqrt(sum)
	if norm <= maxNorm {
		return 1, false
	}
	return maxNorm / norm, true
}

// numWeights is the total weight count of params.
func numWeights(params []Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W)
	}
	return n
}

// SGD is minibatch stochastic gradient descent with momentum.
type SGD struct {
	LR, Momentum float64
	params       []Param
	velocity     []float64
}

// NewSGD returns a momentum SGD optimizer over params.
func NewSGD(params []Param, lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, params: params, velocity: make([]float64, numWeights(params))}
}

// Step clips the gradients to a global L2 norm of maxNorm (maxNorm <= 0
// disables clipping), applies one momentum update and zeroes the gradients.
func (s *SGD) Step(maxNorm float64) {
	scale, clip := clipScale(s.params, maxNorm)
	lr, mom := s.LR, s.Momentum
	off := 0
	for _, p := range s.params {
		w := p.W
		g := p.G[:len(w)]
		v := s.velocity[off : off+len(w)]
		off += len(w)
		for i := range w {
			gi := g[i]
			if clip {
				gi *= scale
			}
			g[i] = 0
			v[i] = float64(mom*v[i]) - float64(lr*gi)
			w[i] += v[i]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	params                []Param
	t                     int
	m, v                  []float64
}

// NewAdam returns an Adam optimizer over params with standard defaults for
// the moment coefficients.
func NewAdam(params []Param, lr float64) *Adam {
	n := numWeights(params)
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		params: params,
		m:      make([]float64, n),
		v:      make([]float64, n),
	}
}

// Step clips the gradients to a global L2 norm of maxNorm (maxNorm <= 0
// disables clipping), applies one Adam update and zeroes the gradients.
func (a *Adam) Step(maxNorm float64) {
	scale, clip := clipScale(a.params, maxNorm)
	a.t++
	b1, b2 := a.Beta1, a.Beta2
	st := tensor.AdamStep{
		B1: b1, D1: 1 - b1, B2: b2, D2: 1 - b2,
		C1: 1 - math.Pow(b1, float64(a.t)), C2: 1 - math.Pow(b2, float64(a.t)),
		LR: a.LR, Eps: a.Eps, Scale: scale, Clip: clip,
	}
	off := 0
	for _, p := range a.params {
		n := len(p.W)
		st.Apply(p.W, p.G, a.m[off:off+n], a.v[off:off+n])
		off += n
	}
}
