package tensor

import "math"

// AdamStep holds the coefficients of one Adam update (Kingma & Ba, with
// bias correction), shared by every tensor of the step.
type AdamStep struct {
	B1, D1 float64 // first-moment decay β1 and 1−β1
	B2, D2 float64 // second-moment decay β2 and 1−β2
	C1, C2 float64 // bias corrections 1−β1^t and 1−β2^t
	LR     float64
	Eps    float64
	Scale  float64 // gradient clip factor, applied only when Clip is set
	Clip   bool
}

// Apply updates one tensor's weights w from its gradients g and moments m
// and v, all of w's length, and zeroes the gradients it consumed. Each
// weight takes exactly
//
//	g' = g·Scale (only when Clip)
//	m  = β1·m + (1−β1)·g'
//	v  = β2·v + ((1−β2)·g')·g'
//	w  = w − (LR·(m/C1)) / (√(v/C2) + Eps)
//	g  = +0
//
// in that order, every product rounded before its add. It panics if g, m
// or v is shorter than w.
func (s *AdamStep) Apply(w, g, m, v []float64) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	i := 0
	if haveAVX2 && n >= 4 {
		i = n &^ 3
		adamAVX2(w[:i], g[:i], m[:i], v[:i], s)
	}
	b1, d1, b2, d2, c1, c2, lr, eps := s.B1, s.D1, s.B2, s.D2, s.C1, s.C2, s.LR, s.Eps
	for ; i < n; i++ {
		gi := g[i]
		if s.Clip {
			gi *= s.Scale
		}
		g[i] = 0
		m[i] = float64(b1*m[i]) + float64(d1*gi)
		v[i] = float64(b2*v[i]) + float64(float64(d2*gi)*gi)
		mHat := m[i] / c1
		vHat := v[i] / c2
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}
