package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The optimizer code as it was before the fused step, kept verbatim as the
// reference the fused, order-indexed steps must match bit for bit: ZeroGrad
// on every layer, a separate ClipGrads pass, and the Adam and momentum SGD
// steps with their state in maps keyed by each tensor's first weight.

// ZeroGrad clears the accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.dW.Zero()
	d.dB.Fill(0)
}

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// ZeroGrad clears accumulated gradients.
func (e *Embedding) ZeroGrad() { e.dTable.Zero() }

// ClipGrads scales gradients down so their global L2 norm does not exceed
// maxNorm; it returns the pre-clip norm. A non-positive maxNorm is a no-op.
func ClipGrads(params []Param, maxNorm float64) float64 {
	sum := 0.0
	for _, p := range params {
		for _, g := range p.G {
			sum += g * g
		}
	}
	norm := math.Sqrt(sum)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
	return norm
}

// refSGD is the map-keyed SGD; only its momentum step had a served caller.
type refSGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*float64][]float64
}

func (s *refSGD) Step(params []Param) {
	if s.velocity == nil {
		s.velocity = make(map[*float64][]float64)
	}
	for _, p := range params {
		key := &p.W[0]
		v, ok := s.velocity[key]
		if !ok {
			v = make([]float64, len(p.W))
			s.velocity[key] = v
		}
		for i := range p.W {
			g := p.G[i] + s.WeightDecay*p.W[i]
			v[i] = s.Momentum*v[i] - s.LR*g
			p.W[i] += v[i]
		}
	}
}

// refAdam is the map-keyed Adam.
type refAdam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*float64][]float64
}

func (a *refAdam) Step(params []Param) {
	if a.m == nil {
		a.m = make(map[*float64][]float64)
		a.v = make(map[*float64][]float64)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if len(p.W) == 0 {
			continue
		}
		key := &p.W[0]
		m, ok := a.m[key]
		if !ok {
			m = make([]float64, len(p.W))
			a.m[key] = m
			a.v[key] = make([]float64, len(p.W))
		}
		v := a.v[key]
		for i := range p.W {
			g := p.G[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / c1
			vHat := v[i] / c2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// flatState lays a map-keyed per-tensor state out in params order, zeros
// for tensors never stepped, for comparison with the fused optimizers'.
func flatState(params []Param, state map[*float64][]float64) []float64 {
	var out []float64
	for _, p := range params {
		if s, ok := state[firstWeight(p)]; ok {
			out = append(out, s...)
		} else {
			out = append(out, make([]float64, len(p.W))...)
		}
	}
	return out
}

func firstWeight(p Param) *float64 {
	if len(p.W) == 0 {
		return nil
	}
	return &p.W[0]
}

// gradKind is the shape of one step's gradients and clip bound.
type gradKind int

const (
	gradClipped    gradKind = iota // global norm far above maxNorm
	gradUnclipped                  // global norm below maxNorm
	gradZero                       // every gradient zero
	gradClipOff                    // large gradients, maxNorm <= 0
	gradNaN                        // one NaN gradient under a clip bound
	gradNaNClipOff                 // one NaN gradient, maxNorm <= 0
)

var gradKindNames = [...]string{"clipped", "unclipped", "zero", "clip-off", "nan", "nan-clip-off"}

// stepInput draws one step's flat gradient and its maxNorm.
func stepInput(src *rng.Source, kind gradKind, n int) ([]float64, float64) {
	grads := make([]float64, n)
	std, maxNorm := 3.0, 1.0
	switch kind {
	case gradUnclipped:
		std, maxNorm = 0.01, 5
	case gradZero:
		std = 0
	case gradClipOff, gradNaNClipOff:
		maxNorm = -float64(src.IntN(2)) // 0 or -1
	}
	for i := range grads {
		grads[i] = src.Gauss(0, std)
	}
	if (kind == gradNaN || kind == gradNaNClipOff) && n > 0 {
		grads[src.IntN(n)] = math.NaN()
	}
	return grads, maxNorm
}

// newTestParams builds parameter tensors of the given sizes with random
// weights and zero gradients.
func newTestParams(src *rng.Source, sizes []int) []Param {
	ps := make([]Param, len(sizes))
	for k, n := range sizes {
		ps[k] = Param{W: make([]float64, n), G: make([]float64, n)}
		for i := range ps[k].W {
			ps[k].W[i] = src.Gauss(0, 1)
		}
	}
	return ps
}

func cloneTestParams(ps []Param) []Param {
	out := make([]Param, len(ps))
	for k, p := range ps {
		out[k] = Param{W: append([]float64{}, p.W...), G: append([]float64{}, p.G...)}
	}
	return out
}

// optimizerPair steps the reference and the fused optimizer over their own
// copies of one parameter list and reports both states in params order.
type optimizerPair struct {
	refStep    func(maxNorm float64)
	fusedStep  func(maxNorm float64)
	refState   func() []float64
	fusedState func() []float64
}

// checkFusedMatchesReference plays one step sequence through a reference
// and a fused optimizer. Before each step the reference zeroes its
// gradients and both sides accumulate the same draw into theirs, so the
// fused side trains only on the zeroing its previous Step did. After every
// step the weights and optimizer state must agree bit for bit and every
// fused gradient must be zero.
func checkFusedMatchesReference(t *testing.T, seed uint64, sizes []int, kinds []gradKind,
	pair func(ref, fused []Param) optimizerPair) {
	t.Helper()
	src := rng.New(seed)
	ref := newTestParams(src, sizes)
	fused := cloneTestParams(ref)
	opt := pair(ref, fused)
	for step, kind := range kinds {
		grads, maxNorm := stepInput(src, kind, numWeights(ref))
		off := 0
		for k := range ref {
			clear(ref[k].G)
			for i := range ref[k].G {
				ref[k].G[i] += grads[off+i]
				fused[k].G[i] += grads[off+i]
			}
			off += len(ref[k].G)
		}
		opt.refStep(maxNorm)
		opt.fusedStep(maxNorm)

		where := fmt.Sprintf("seed %d step %d (%s, maxNorm %v)", seed, step, gradKindNames[kind], maxNorm)
		for k := range ref {
			for i := range ref[k].W {
				if r, f := ref[k].W[i], fused[k].W[i]; math.Float64bits(r) != math.Float64bits(f) {
					t.Fatalf("%s: tensor %d weight %d: fused %v (%#x), reference %v (%#x)",
						where, k, i, f, math.Float64bits(f), r, math.Float64bits(r))
				}
				if g := fused[k].G[i]; math.Float64bits(g) != 0 {
					t.Fatalf("%s: tensor %d gradient %d left at %v after Step", where, k, i, g)
				}
			}
		}
		rs, fs := opt.refState(), opt.fusedState()
		if len(rs) != len(fs) {
			t.Fatalf("%s: state length fused %d, reference %d", where, len(fs), len(rs))
		}
		for i := range rs {
			if math.Float64bits(rs[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("%s: state %d: fused %v, reference %v", where, i, fs[i], rs[i])
			}
		}
	}
}

// fusedSequences are the step sequences every optimizer is checked over:
// each kind alone (so it also lands on the first, state-initialising step),
// long random mixes of the finite kinds, and NaN gradients arriving
// mid-run under a clip bound and without one.
func fusedSequences(src *rng.Source) [][]gradKind {
	var seqs [][]gradKind
	for kind := gradClipped; kind <= gradNaNClipOff; kind++ {
		seq := make([]gradKind, 6)
		for i := range seq {
			seq[i] = kind
		}
		seqs = append(seqs, seq)
	}
	for r := 0; r < 4; r++ {
		seq := make([]gradKind, 200)
		for i := range seq {
			seq[i] = gradKind(src.IntN(int(gradClipOff) + 1))
		}
		seqs = append(seqs, seq)
	}
	for _, nan := range []gradKind{gradNaN, gradNaNClipOff} {
		seqs = append(seqs, []gradKind{gradClipped, gradUnclipped, gradZero, gradClipOff, nan, gradClipped, gradUnclipped, gradClipOff})
	}
	return seqs
}

func TestAdamFusedStepMatchesReference(t *testing.T) {
	// One shape with an empty tensor mid-list and one that starts with
	// one: the pre-change Adam skipped empty tensors.
	for _, sizes := range [][]int{{12, 4, 0, 7}, {0, 5}} {
		for i, seq := range fusedSequences(rng.New(11)) {
			checkFusedMatchesReference(t, uint64(100+i), sizes, seq, func(ref, fused []Param) optimizerPair {
				r := &refAdam{LR: 0.05, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
				f := NewAdam(fused, 0.05)
				return optimizerPair{
					refStep: func(maxNorm float64) {
						ClipGrads(ref, maxNorm)
						r.Step(ref)
					},
					fusedStep: f.Step,
					refState: func() []float64 {
						return append(append([]float64{float64(r.t)}, flatState(ref, r.m)...), flatState(ref, r.v)...)
					},
					fusedState: func() []float64 {
						return append(append([]float64{float64(f.t)}, f.m...), f.v...)
					},
				}
			})
		}
	}
}

func TestSGDFusedStepMatchesReference(t *testing.T) {
	// The pre-change SGD keyed its state by &p.W[0], so it never took an
	// empty tensor; the shapes here have none.
	for i, seq := range fusedSequences(rng.New(12)) {
		checkFusedMatchesReference(t, uint64(200+i), []int{12, 4, 7}, seq, func(ref, fused []Param) optimizerPair {
			r := &refSGD{LR: 0.05, Momentum: 0.9}
			f := NewSGD(fused, 0.05, 0.9)
			return optimizerPair{
				refStep: func(maxNorm float64) {
					ClipGrads(ref, maxNorm)
					r.Step(ref)
				},
				fusedStep:  f.Step,
				refState:   func() []float64 { return flatState(ref, r.velocity) },
				fusedState: func() []float64 { return f.velocity },
			}
		})
	}
}

// TestAdamStateRoundTrip: a capture restored into a fresh optimizer over
// an identically shaped list continues the run bit for bit, and a capture
// of another shape is refused.
func TestAdamStateRoundTrip(t *testing.T) {
	src := rng.New(3)
	sizes := []int{6, 0, 3}
	a := newTestParams(src, sizes)
	optA := NewAdam(a, 0.01)
	for s := 0; s < 5; s++ {
		grads, maxNorm := stepInput(src, gradClipped, numWeights(a))
		copy(a[0].G, grads[:6])
		copy(a[2].G, grads[6:])
		optA.Step(maxNorm)
	}
	b := cloneTestParams(a)
	optB := NewAdam(b, 0.01)
	if err := optB.Restore(optA.State()); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]Param{a, b} {
		p[0].G[1], p[2].G[2] = 0.5, -2
	}
	optA.Step(1)
	optB.Step(1)
	for k := range a {
		for i := range a[k].W {
			if math.Float64bits(a[k].W[i]) != math.Float64bits(b[k].W[i]) {
				t.Fatalf("tensor %d weight %d: restored %v, original %v", k, i, b[k].W[i], a[k].W[i])
			}
		}
	}
	if err := NewAdam(newTestParams(src, []int{6, 3}), 0.01).Restore(optA.State()); err == nil {
		t.Fatal("restore into a list with fewer tensors succeeded")
	}
	if err := NewAdam(newTestParams(src, []int{6, 0, 4}), 0.01).Restore(optA.State()); err == nil {
		t.Fatal("restore into a differently sized tensor succeeded")
	}
}
