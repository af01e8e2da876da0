// Package nn is the from-scratch neural-network substrate: dense layers,
// activations, an embedding table, losses, optimizers, and an online
// regressor. It implements exactly what the paper needs — the 3-layer MLP VFL
// base model (embedding dims 64 and 32) and the two performance-gain
// estimators f (price → ΔG) and g (feature bundle → ΔG). Minibatch training
// and batched prediction run through the tensor package's matrix kernels;
// the per-sample Forward/Backward passes remain for online estimator
// updates and single-sample prediction, and the batch path is
// bit-identical to them.
package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Activation is an element-wise non-linearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Sigmoid
	Tanh
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) forward(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// addBiasAct sets x to act(x + b) in place, x holding whole rows of len(b)
// elements: the epilogue of Forward, ForwardBatch and PredictBatchInto.
// Identity and ReLU run as the tensor package's vectorized passes, which
// give forward's results exactly; sigmoid and tanh call forward.
func (a Activation) addBiasAct(x, b []float64) {
	switch a {
	case Identity:
		tensor.AddBias(x, b)
	case ReLU:
		tensor.AddBiasReLU(x, b)
	default:
		for r := 0; r < len(x); r += len(b) {
			row := x[r : r+len(b)]
			for o := range row {
				row[o] = a.forward(row[o] + b[o])
			}
		}
	}
}

// gradInto sets dz to the pre-activation gradient for upstream gradients
// g and activated outputs y — g times the activation's derivative, taken
// from its output — and returns dz; for Identity, whose g·1 is g, it
// returns g itself and leaves dz untouched.
func (a Activation) gradInto(dz, g, y []float64) []float64 {
	switch a {
	case ReLU:
		tensor.ReLUGrad(dz, g, y)
	case Sigmoid:
		for i, yi := range y[:len(dz)] {
			dz[i] = g[i] * (yi * (1 - yi))
		}
	case Tanh:
		for i, yi := range y[:len(dz)] {
			dz[i] = g[i] * (1 - float64(yi*yi))
		}
	default:
		return g
	}
	return dz
}

// Param is a flat view of one parameter tensor and its gradient accumulator,
// consumed by the optimizers. Backward passes add into G; an optimizer Step
// zeroes it.
type Param struct {
	W []float64
	G []float64
}

// Dense is a fully connected layer y = act(Wx + b). It exposes both a
// per-sample path (Forward/Backward) and a vectorized minibatch path
// (ForwardBatch/BackwardBatch) over the same parameters; the batch path
// reuses preallocated activation and gradient buffers across calls, and its
// kernels keep the per-sample summation order, so the two paths produce
// bit-identical gradients for the same samples.
type Dense struct {
	In, Out int
	Act     Activation
	W       *tensor.Matrix // Out × In
	B       tensor.Vector
	dW      *tensor.Matrix
	dB      tensor.Vector
	lastX   tensor.Vector // cached input of the last Forward
	lastY   tensor.Vector // cached activated output of the last Forward

	// Per-sample buffers, reused across Forward/Backward calls.
	fy tensor.Vector // Forward output (also lastY)
	dz tensor.Vector // pre-activation gradient
	dx tensor.Vector // input gradient handed back to the previous layer

	// Minibatch buffers, reused across ForwardBatch/BackwardBatch calls.
	bX  *tensor.Matrix // cached input of the last ForwardBatch (caller-owned)
	bY  *tensor.Matrix // cached activated outputs
	bDZ *tensor.Matrix // pre-activation gradients
	bDX *tensor.Matrix // input gradients handed back to the previous layer
	bWt []float64      // W transposed for ForwardBatch's product
	bGt []float64      // dW transposed for AccumulateBatch's product
}

// NewDense creates a dense layer with He-style initialisation (std
// sqrt(2/in) for ReLU, sqrt(1/in) otherwise).
func NewDense(in, out int, act Activation, src *rng.Source) *Dense {
	d := newDense(in, out, act)
	d.Reseed(src)
	return d
}

// newDense allocates a layer for Reseed to draw.
func newDense(in, out int, act Activation) *Dense {
	return &Dense{
		In: in, Out: out, Act: act,
		W:  tensor.NewMatrix(out, in),
		B:  tensor.NewVector(out),
		dW: tensor.NewMatrix(out, in),
		dB: tensor.NewVector(out),
	}
}

// Reseed puts the layer in the state NewDense(…, src) leaves it in. It
// keeps its buffers and caches: each is written before it is read.
func (d *Dense) Reseed(src *rng.Source) {
	std := math.Sqrt(1 / float64(d.In))
	if d.Act == ReLU {
		std = math.Sqrt(2 / float64(d.In))
	}
	d.W.RandInit(src, std)
	clear(d.B)
	clear(d.dW.Data)
	clear(d.dB)
}

// Forward computes the layer output for one sample and caches the
// intermediates needed by Backward. The returned vector is a layer-owned
// buffer, valid until the next Forward call on this layer; callers that
// need it longer must Clone it. Outputs are computed four at a time, so
// four independent add chains advance through x together; each is still
// the Dot of its weight row with x, in Dot's order. The bias and the
// activation follow in the epilogue ForwardBatch also ends in.
func (d *Dense) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense forward input %d, want %d", len(x), d.In))
	}
	if cap(d.fy) < d.Out {
		d.fy = make(tensor.Vector, d.Out)
	}
	y := d.fy[:d.Out]
	W, n := d.W.Data, len(x)
	i := 0
	for ; i+4 <= d.Out; i += 4 {
		w0 := W[i*n : (i+1)*n]
		w1 := W[(i+1)*n : (i+2)*n][:n]
		w2 := W[(i+2)*n : (i+3)*n][:n]
		w3 := W[(i+3)*n : (i+4)*n][:n]
		var s0, s1, s2, s3 float64
		for k, xk := range x {
			s0 += float64(w0[k] * xk)
			s1 += float64(w1[k] * xk)
			s2 += float64(w2[k] * xk)
			s3 += float64(w3[k] * xk)
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < d.Out; i++ {
		y[i] = tensor.Vector(W[i*n : (i+1)*n]).Dot(x)
	}
	d.Act.addBiasAct(y, d.B)
	d.lastX, d.lastY = x, y
	return y
}

// Backward takes dL/dy for the last Forward, accumulates parameter gradients
// and returns dL/dx (a layer-owned buffer, valid until the next Backward).
func (d *Dense) Backward(grad tensor.Vector) tensor.Vector {
	if len(grad) != d.Out {
		panic(fmt.Sprintf("nn: Dense backward grad %d, want %d", len(grad), d.Out))
	}
	// dL/dz where z = Wx + b.
	if cap(d.dz) < d.Out {
		d.dz = make(tensor.Vector, d.Out)
	}
	dz := d.Act.gradInto(d.dz[:d.Out], grad, d.lastY)
	d.dW.AddOuter(1, dz, d.lastX)
	d.dB.AddScaled(1, dz)
	if cap(d.dx) < d.In {
		d.dx = make(tensor.Vector, d.In)
	}
	dx := d.dx[:d.In]
	d.W.MulVecTInto(dx, dz)
	return dx
}

// ForwardBatch computes the layer outputs for a whole minibatch (rows of X
// are samples) and caches the intermediates BackwardBatch needs. The
// returned matrix is an internal buffer reused by the next ForwardBatch
// call; callers must consume it before then. Row i is bit-identical to
// Forward(X.Row(i)).
func (d *Dense) ForwardBatch(X *tensor.Matrix) *tensor.Matrix {
	if X.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batch forward input %d, want %d", X.Cols, d.In))
	}
	d.bY = tensor.EnsureMatrix(d.bY, X.Rows, d.Out)
	tensor.MulABtInto(d.bY, X, d.W, &d.bWt)
	d.Act.addBiasAct(d.bY.Data, d.B)
	d.bX = X
	return d.bY
}

// AccumulateBatch takes dL/dY for the last ForwardBatch (rows are samples)
// and accumulates the parameter gradients sample by sample in row order,
// without the input gradient. It is the backward step of a first layer,
// whose dL/dX nothing reads. The accumulated gradients are bit-identical to
// running Backward over the batch one sample at a time in the same order.
func (d *Dense) AccumulateBatch(grad *tensor.Matrix) { d.accumulate(grad) }

// accumulate is AccumulateBatch, returning the pre-activation gradients
// it accumulated: grad itself for Identity, else the bDZ buffer.
func (d *Dense) accumulate(grad *tensor.Matrix) *tensor.Matrix {
	if grad.Cols != d.Out || grad.Rows != d.bY.Rows {
		panic(fmt.Sprintf("nn: Dense batch backward grad %dx%d, want %dx%d",
			grad.Rows, grad.Cols, d.bY.Rows, d.Out))
	}
	dz := grad
	if d.Act != Identity {
		d.bDZ = tensor.EnsureMatrix(d.bDZ, grad.Rows, d.Out)
		d.Act.gradInto(d.bDZ.Data, grad.Data, d.bY.Data)
		dz = d.bDZ
	}
	tensor.AddMulAtB(d.dW, dz, d.bX, &d.bGt)
	for s := 0; s < dz.Rows; s++ {
		d.dB.AddScaled(1, dz.Row(s))
	}
	return dz
}

// BackwardBatch is AccumulateBatch followed by the input gradient: it
// returns dL/dX (an internal buffer, valid until the next BackwardBatch).
func (d *Dense) BackwardBatch(grad *tensor.Matrix) *tensor.Matrix {
	dz := d.accumulate(grad)
	d.bDX = tensor.EnsureMatrix(d.bDX, grad.Rows, d.In)
	tensor.MatMulInto(d.bDX, dz, d.W)
	return d.bDX
}

// Params exposes the layer parameters to an optimizer.
func (d *Dense) Params() []Param {
	return []Param{{W: d.W.Data, G: d.dW.Data}, {W: d.B, G: d.dB}}
}

// MLP is a stack of dense layers operating on one sample at a time.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes (len >= 2), hidden
// activation for all but the last layer, and outAct on the output layer.
func NewMLP(sizes []int, hidden, outAct Activation, src *rng.Source) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, newDense(sizes[i], sizes[i+1], act))
	}
	m.Reseed(src)
	return m
}

// Reseed puts the MLP in the state NewMLP(…, src) leaves it in.
func (m *MLP) Reseed(src *rng.Source) {
	for i, l := range m.Layers {
		l.Reseed(src.Split(uint64(i)))
	}
}

// Forward runs the sample through all layers.
func (m *MLP) Forward(x tensor.Vector) tensor.Vector {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dL/dy through all layers, accumulating gradients, and
// returns dL/dx.
func (m *MLP) Backward(grad tensor.Vector) tensor.Vector {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// ForwardBatch runs a whole minibatch (rows are samples) through all
// layers. The returned matrix is a layer-owned buffer, valid until the next
// batch call; row i is bit-identical to Forward on that sample.
func (m *MLP) ForwardBatch(X *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.Layers {
		X = l.ForwardBatch(X)
	}
	return X
}

// BackwardBatch propagates per-sample dL/dY rows through all layers,
// accumulating gradients bit-identically to per-sample Backward calls in
// row order, and returns dL/dX (a layer-owned buffer).
func (m *MLP) BackwardBatch(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].BackwardBatch(grad)
	}
	return grad
}

// Params exposes all layer parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// In returns the input width.
func (m *MLP) In() int { return m.Layers[0].In }

// Embedding is a lookup table mapping discrete IDs to dense vectors. The
// data party's bundle encoder embeds each feature in a bundle and averages
// the embeddings — the Go equivalent of the paper's nn.Embedding + mean
// pooling.
type Embedding struct {
	NumIDs, Dim int
	Table       *tensor.Matrix // NumIDs × Dim
	dTable      *tensor.Matrix
	lastIDs     []int
	fwd         tensor.Vector // ForwardMean output, reused across calls
}

// NewEmbedding creates an embedding table with Gaussian init.
func NewEmbedding(numIDs, dim int, src *rng.Source) *Embedding {
	e := &Embedding{
		NumIDs: numIDs, Dim: dim,
		Table:  tensor.NewMatrix(numIDs, dim),
		dTable: tensor.NewMatrix(numIDs, dim),
	}
	e.Reseed(src)
	return e
}

// Reseed puts the table in the state NewEmbedding(…, src) leaves it in.
func (e *Embedding) Reseed(src *rng.Source) {
	e.Table.RandInit(src, 0.1)
	clear(e.dTable.Data)
}

// ForwardMean returns the mean embedding of ids and caches them for
// BackwardMean. The returned vector is a table-owned buffer, valid until
// the next ForwardMean call. It panics on an empty id set or out-of-range
// ids.
func (e *Embedding) ForwardMean(ids []int) tensor.Vector {
	if len(ids) == 0 {
		panic("nn: Embedding.ForwardMean on empty id set")
	}
	if cap(e.fwd) < e.Dim {
		e.fwd = make(tensor.Vector, e.Dim)
	}
	out := e.fwd[:e.Dim]
	out.Fill(0)
	for _, id := range ids {
		if id < 0 || id >= e.NumIDs {
			panic(fmt.Sprintf("nn: embedding id %d out of range [0,%d)", id, e.NumIDs))
		}
		out.AddScaled(1, e.Table.Row(id))
	}
	out.Scale(1 / float64(len(ids)))
	e.lastIDs = ids
	return out
}

// BackwardMean accumulates gradients for the last ForwardMean call.
func (e *Embedding) BackwardMean(grad tensor.Vector) {
	if len(grad) != e.Dim {
		panic("nn: Embedding.BackwardMean grad size mismatch")
	}
	scale := 1 / float64(len(e.lastIDs))
	for _, id := range e.lastIDs {
		row := e.dTable.Row(id)
		row.AddScaled(scale, grad)
	}
}

// Params exposes the table to an optimizer.
func (e *Embedding) Params() []Param {
	return []Param{{W: e.Table.Data, G: e.dTable.Data}}
}
