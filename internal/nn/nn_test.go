package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestActivationString(t *testing.T) {
	if ReLU.String() != "relu" || Identity.String() != "identity" ||
		Sigmoid.String() != "sigmoid" || Tanh.String() != "tanh" {
		t.Fatal("Activation.String wrong")
	}
	if Activation(42).String() != "Activation(42)" {
		t.Fatal("unknown activation String wrong")
	}
}

func TestActivationForward(t *testing.T) {
	if ReLU.forward(-1) != 0 || ReLU.forward(2) != 2 {
		t.Fatal("ReLU wrong")
	}
	if math.Abs(Sigmoid.forward(0)-0.5) > 1e-12 {
		t.Fatal("Sigmoid wrong")
	}
	if Tanh.forward(0) != 0 {
		t.Fatal("Tanh wrong")
	}
	if Identity.forward(3.5) != 3.5 {
		t.Fatal("Identity wrong")
	}
}

// Numerical gradient check: the analytic parameter gradients of a small MLP
// must match finite differences of the loss.
func TestMLPGradientCheck(t *testing.T) {
	src := rng.New(3)
	net := NewMLP([]int{3, 4, 1}, Tanh, Identity, src)
	x := tensor.Vector{0.3, -0.7, 1.2}
	target := 0.42

	loss := func() float64 {
		out := net.Forward(x)
		l, _ := MSEGrad(out[0], target)
		return l
	}

	net.ZeroGrad()
	out := net.Forward(x)
	_, g := MSEGrad(out[0], target)
	net.Backward(tensor.Vector{g})

	const eps = 1e-6
	for li, layer := range net.Layers {
		params := layer.Params()
		for pi, p := range params {
			for i := range p.W {
				orig := p.W[i]
				p.W[i] = orig + eps
				up := loss()
				p.W[i] = orig - eps
				down := loss()
				p.W[i] = orig
				numeric := (up - down) / (2 * eps)
				if math.Abs(numeric-p.G[i]) > 1e-5*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d param %d index %d: analytic %v vs numeric %v",
						li, pi, i, p.G[i], numeric)
				}
			}
		}
	}
}

// Gradient check for the input gradient returned by Backward.
func TestMLPInputGradientCheck(t *testing.T) {
	src := rng.New(5)
	net := NewMLP([]int{2, 3, 1}, Sigmoid, Identity, src)
	x := tensor.Vector{0.5, -0.25}
	target := -1.0

	net.ZeroGrad()
	out := net.Forward(x)
	_, g := MSEGrad(out[0], target)
	dx := net.Backward(tensor.Vector{g})

	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		l1, _ := MSEGrad(net.Forward(x)[0], target)
		x[i] = orig - eps
		l2, _ := MSEGrad(net.Forward(x)[0], target)
		x[i] = orig
		numeric := (l1 - l2) / (2 * eps)
		if math.Abs(numeric-dx[i]) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("input grad %d: analytic %v vs numeric %v", i, dx[i], numeric)
		}
	}
}

func TestEmbeddingGradientCheck(t *testing.T) {
	src := rng.New(7)
	emb := NewEmbedding(5, 3, src)
	ids := []int{1, 3, 4}
	target := tensor.Vector{0.1, -0.2, 0.3}

	loss := func() float64 {
		out := emb.ForwardMean(ids)
		s := 0.0
		for i := range out {
			d := out[i] - target[i]
			s += d * d
		}
		return s
	}

	emb.ZeroGrad()
	out := emb.ForwardMean(ids)
	grad := make(tensor.Vector, 3)
	for i := range out {
		grad[i] = 2 * (out[i] - target[i])
	}
	emb.BackwardMean(grad)

	const eps = 1e-6
	p := emb.Params()[0]
	for i := range p.W {
		orig := p.W[i]
		p.W[i] = orig + eps
		up := loss()
		p.W[i] = orig - eps
		down := loss()
		p.W[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-p.G[i]) > 1e-6*(1+math.Abs(numeric)) {
			t.Fatalf("embedding grad %d: analytic %v vs numeric %v", i, p.G[i], numeric)
		}
	}
}

func TestEmbeddingPanics(t *testing.T) {
	emb := NewEmbedding(3, 2, rng.New(1))
	for _, tc := range []func(){
		func() { emb.ForwardMean(nil) },
		func() { emb.ForwardMean([]int{5}) },
		func() { emb.ForwardMean([]int{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc()
		}()
	}
}

func TestDensePanicsOnSizeMismatch(t *testing.T) {
	d := NewDense(2, 3, ReLU, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Forward(tensor.Vector{1})
}

func TestNewMLPPanicsOnShortSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP([]int{3}, ReLU, Identity, rng.New(1))
}

func TestMLPShapes(t *testing.T) {
	m := NewMLP([]int{4, 8, 2}, ReLU, Sigmoid, rng.New(2))
	if m.In() != 4 || m.Out() != 2 {
		t.Fatalf("In/Out = %d/%d", m.In(), m.Out())
	}
	out := m.Forward(make(tensor.Vector, 4))
	if len(out) != 2 {
		t.Fatalf("output len = %d", len(out))
	}
	if got := len(m.Params()); got != 4 { // 2 layers × (W, b)
		t.Fatalf("param groups = %d", got)
	}
}

func TestBCEWithLogitsGrad(t *testing.T) {
	// At z=0 the loss is log 2 regardless of label; grads are ±0.5.
	l1, g1 := BCEWithLogitsGrad(0, 1)
	l0, g0 := BCEWithLogitsGrad(0, 0)
	if math.Abs(l1-math.Ln2) > 1e-12 || math.Abs(l0-math.Ln2) > 1e-12 {
		t.Fatalf("losses %v, %v", l1, l0)
	}
	if math.Abs(g1+0.5) > 1e-12 || math.Abs(g0-0.5) > 1e-12 {
		t.Fatalf("grads %v, %v", g1, g0)
	}
	// Extreme logits must not overflow.
	if l, _ := BCEWithLogitsGrad(1000, 0); math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatal("overflow at large logit")
	}
	if l, _ := BCEWithLogitsGrad(-1000, 1); math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatal("overflow at large negative logit")
	}
}

func TestBCEGradientMatchesNumeric(t *testing.T) {
	const eps = 1e-6
	for _, z := range []float64{-2, -0.5, 0, 0.7, 3} {
		for _, y := range []int{0, 1} {
			_, g := BCEWithLogitsGrad(z, y)
			up, _ := BCEWithLogitsGrad(z+eps, y)
			down, _ := BCEWithLogitsGrad(z-eps, y)
			numeric := (up - down) / (2 * eps)
			if math.Abs(g-numeric) > 1e-6 {
				t.Fatalf("z=%v y=%d: grad %v vs numeric %v", z, y, g, numeric)
			}
		}
	}
}

// The classic sanity check: a small MLP must be able to learn XOR.
func TestClassifierLearnsXOR(t *testing.T) {
	X := &tensor.Matrix{Rows: 4, Cols: 2, Data: []float64{0, 0, 0, 1, 1, 0, 1, 1}}
	y := []int{0, 1, 1, 0}
	c := TrainClassifier(X, y, TrainConfig{
		Hidden: []int{8}, LR: 0.5, Epochs: 2000, BatchSize: 4, Seed: 11,
	})
	for i := 0; i < 4; i++ {
		if got := c.Predict(X.Row(i)); got != y[i] {
			t.Fatalf("XOR sample %d: predicted %d, want %d", i, got, y[i])
		}
	}
}

func TestClassifierLearnsLinearlySeparable(t *testing.T) {
	src := rng.New(13)
	n := 400
	X := tensor.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := src.Gauss(0, 1), src.Gauss(0, 1)
		X.Set(i, 0, a)
		X.Set(i, 1, b)
		if a+b > 0 {
			y[i] = 1
		}
	}
	c := TrainClassifier(X, y, TrainConfig{Hidden: []int{16}, LR: 0.1, Epochs: 60, BatchSize: 32, Seed: 1})
	hits := 0
	for i := 0; i < n; i++ {
		if c.Predict(X.Row(i)) == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(n); acc < 0.95 {
		t.Fatalf("train accuracy = %v", acc)
	}
	if got := len(c.PredictAll(X)); got != n {
		t.Fatalf("PredictAll returned %d rows", got)
	}
}

func TestRegressorFitsQuadratic(t *testing.T) {
	src := rng.New(17)
	r := NewRegressor(1, []int{32, 16}, 1e-2, 19)
	for step := 0; step < 4000; step++ {
		x := src.Uniform(-1, 1)
		r.Update(tensor.Vector{x}, x*x)
	}
	worst := 0.0
	for _, x := range []float64{-0.8, -0.4, 0, 0.4, 0.8} {
		err := math.Abs(r.Predict(tensor.Vector{x}) - x*x)
		if err > worst {
			worst = err
		}
	}
	if worst > 0.1 {
		t.Fatalf("regressor worst abs error = %v", worst)
	}
}

func TestRegressorUpdateBatch(t *testing.T) {
	r := NewRegressor(1, []int{8}, 1e-2, 23)
	xs := []tensor.Vector{{0.1}, {0.5}, {0.9}}
	targets := []float64{1, 1, 1}
	first := r.UpdateBatch(xs, targets)
	var last float64
	for i := 0; i < 500; i++ {
		last = r.UpdateBatch(xs, targets)
	}
	if last >= first {
		t.Fatalf("batch loss did not decrease: %v -> %v", first, last)
	}
}

func TestRegressorUpdateBatchPanics(t *testing.T) {
	r := NewRegressor(1, []int{4}, 1e-2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.UpdateBatch(nil, nil)
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize (w-3)^2 with momentum SGD.
	w := []float64{0}
	g := []float64{0}
	opt := NewSGD([]Param{{W: w, G: g}}, 0.05, 0.9)
	for i := 0; i < 200; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(0)
	}
	if math.Abs(w[0]-3) > 1e-3 {
		t.Fatalf("w = %v, want 3", w[0])
	}
}

func TestAdamConverges(t *testing.T) {
	w := []float64{-5}
	g := []float64{0}
	opt := NewAdam([]Param{{W: w, G: g}}, 0.1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 1)
		opt.Step(0)
	}
	if math.Abs(w[0]-1) > 1e-2 {
		t.Fatalf("Adam w = %v, want 1", w[0])
	}
}

func TestClipGrads(t *testing.T) {
	g := []float64{3, 4} // norm 5
	p := []Param{{W: []float64{0, 0}, G: g}}
	norm := ClipGrads(p, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if math.Abs(g[0]-0.6) > 1e-12 || math.Abs(g[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grads = %v", g)
	}
	// No-op cases.
	g2 := []float64{1, 0}
	ClipGrads([]Param{{W: []float64{0, 0}, G: g2}}, 10)
	if g2[0] != 1 {
		t.Fatal("clip should not rescale when below max")
	}
	ClipGrads([]Param{{W: []float64{0, 0}, G: g2}}, 0)
	if g2[0] != 1 {
		t.Fatal("maxNorm <= 0 should be a no-op")
	}
}

func TestZeroGradClears(t *testing.T) {
	net := NewMLP([]int{2, 3, 1}, ReLU, Identity, rng.New(9))
	net.Forward(tensor.Vector{1, 2})
	net.Backward(tensor.Vector{1})
	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	X := &tensor.Matrix{Rows: 4, Cols: 2, Data: []float64{0, 0, 0, 1, 1, 0, 1, 1}}
	y := []int{0, 1, 1, 0}
	cfg := TrainConfig{Hidden: []int{4}, LR: 0.3, Epochs: 50, BatchSize: 4, Seed: 77}
	a := TrainClassifier(X, y, cfg)
	b := TrainClassifier(X, y, cfg)
	for i := 0; i < 4; i++ {
		pa, pb := a.PredictProba(X.Row(i)), b.PredictProba(X.Row(i))
		if pa != pb {
			t.Fatalf("training not deterministic: %v vs %v", pa, pb)
		}
	}
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	net := NewMLP([]int{30, 64, 32, 1}, ReLU, Identity, rng.New(1))
	x := make(tensor.Vector, 30)
	for i := range x {
		x[i] = float64(i) * 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		out := net.Forward(x)
		_, g := MSEGrad(out[0], 0.5)
		net.Backward(tensor.Vector{g})
	}
}

// A standalone classifier and a batched regressor update no production path
// calls, kept for the tests: the classifier pins the vectorized minibatch
// kernels bit for bit.

// TrainConfig controls the minibatch trainers.
type TrainConfig struct {
	Hidden    []int   // hidden layer sizes; defaults to {64, 32} (paper)
	LR        float64 // defaults to 1e-2 (paper)
	Epochs    int     // defaults to 200 (paper's isolated-training budget)
	BatchSize int     // defaults to 128
	Seed      uint64
	ClipNorm  float64 // 0 disables clipping
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Hidden == nil {
		c.Hidden = []int{64, 32}
	}
	if c.LR == 0 {
		c.LR = 1e-2
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	return c
}

// Classifier is a trained binary MLP classifier.
type Classifier struct {
	net *MLP
}

// TrainClassifier fits a binary MLP classifier on X (rows are samples) and
// labels y using minibatch SGD on the BCE-with-logits loss. Training runs
// the vectorized minibatch path — whole-batch matrix kernels with reused
// buffers — which is bit-identical to the per-sample loop it replaced.
func TrainClassifier(X *tensor.Matrix, y []int, cfg TrainConfig) *Classifier {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed)
	sizes := append(append([]int{X.Cols}, cfg.Hidden...), 1)
	net := NewMLP(sizes, ReLU, Identity, src.Split(1))
	opt := NewSGD(net.Params(), cfg.LR, 0.9)
	shuffle := src.Split(2)
	n := X.Rows
	var xb, gb *tensor.Matrix
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := shuffle.Perm(n)
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batch := perm[start:end]
			xb = tensor.GatherRowsInto(xb, X, batch)
			out := net.ForwardBatch(xb)
			gb = tensor.EnsureMatrix(gb, len(batch), 1)
			for s, i := range batch {
				_, g := BCEWithLogitsGrad(out.At(s, 0), y[i])
				gb.Set(s, 0, g/float64(len(batch)))
			}
			net.BackwardBatch(gb)
			opt.Step(cfg.ClipNorm)
		}
	}
	return &Classifier{net: net}
}

// PredictProba returns P(y=1 | x).
func (c *Classifier) PredictProba(x tensor.Vector) float64 {
	z := c.net.Forward(x)
	return 1 / (1 + math.Exp(-z[0]))
}

// Predict returns the class decision at threshold 0.5.
func (c *Classifier) Predict(x tensor.Vector) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll returns class decisions for every row of X through one
// vectorized forward pass (bit-identical to per-row Predict).
func (c *Classifier) PredictAll(X *tensor.Matrix) []int {
	z := c.net.ForwardBatch(X)
	out := make([]int, X.Rows)
	for i := range out {
		if 1/(1+math.Exp(-z.At(i, 0))) >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// UpdateBatch performs one gradient step on a batch and returns the mean
// pre-update squared error. It panics on length mismatch or an empty batch.
func (r *Regressor) UpdateBatch(xs []tensor.Vector, targets []float64) float64 {
	if len(xs) != len(targets) || len(xs) == 0 {
		panic("nn: UpdateBatch needs a non-empty batch with matching targets")
	}
	total := 0.0
	for i, x := range xs {
		pred := r.net.Forward(x)
		loss, g := MSEGrad(pred[0], targets[i])
		total += loss
		r.gbuf[0] = g / float64(len(xs))
		r.net.Backward(r.gbuf)
	}
	r.opt.Step(5)
	return total / float64(len(xs))
}

// Out returns the output width.
func (m *MLP) Out() int { return m.Layers[len(m.Layers)-1].Out }
