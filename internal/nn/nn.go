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

// derivative in terms of the activation output y (cheaper for sigmoid/tanh).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Param is a flat view of one parameter tensor and its gradient accumulator,
// consumed by the optimizers.
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
}

// NewDense creates a dense layer with He-style initialisation (std
// sqrt(2/in) for ReLU, sqrt(1/in) otherwise).
func NewDense(in, out int, act Activation, src *rng.Source) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  tensor.NewMatrix(out, in),
		B:  tensor.NewVector(out),
		dW: tensor.NewMatrix(out, in),
		dB: tensor.NewVector(out),
	}
	std := math.Sqrt(1 / float64(in))
	if act == ReLU {
		std = math.Sqrt(2 / float64(in))
	}
	d.W.RandInit(src, std)
	return d
}

// Forward computes the layer output for one sample and caches the
// intermediates needed by Backward. The returned vector is a layer-owned
// buffer, valid until the next Forward call on this layer; callers that
// need it longer must Clone it.
func (d *Dense) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense forward input %d, want %d", len(x), d.In))
	}
	if cap(d.fy) < d.Out {
		d.fy = make(tensor.Vector, d.Out)
	}
	y := d.fy[:d.Out]
	for i := 0; i < d.Out; i++ {
		y[i] = d.Act.forward(tensor.Vector(d.W.Data[i*d.In:(i+1)*d.In]).Dot(x) + d.B[i])
	}
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
	dz := d.dz[:d.Out]
	for i, g := range grad {
		dz[i] = g * d.Act.derivFromOutput(d.lastY[i])
	}
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
	tensor.MulABtInto(d.bY, X, d.W)
	for s := 0; s < X.Rows; s++ {
		row := d.bY.Row(s)
		for o := range row {
			row[o] = d.Act.forward(row[o] + d.B[o])
		}
	}
	d.bX = X
	return d.bY
}

// AccumulateBatch takes dL/dY for the last ForwardBatch (rows are samples)
// and accumulates the parameter gradients sample by sample in row order,
// without the input gradient. It is the backward step of a first layer,
// whose dL/dX nothing reads. The accumulated gradients are bit-identical to
// running Backward over the batch one sample at a time in the same order.
func (d *Dense) AccumulateBatch(grad *tensor.Matrix) {
	if grad.Cols != d.Out || grad.Rows != d.bY.Rows {
		panic(fmt.Sprintf("nn: Dense batch backward grad %dx%d, want %dx%d",
			grad.Rows, grad.Cols, d.bY.Rows, d.Out))
	}
	d.bDZ = tensor.EnsureMatrix(d.bDZ, grad.Rows, d.Out)
	for s := 0; s < grad.Rows; s++ {
		grow, yrow, zrow := grad.Row(s), d.bY.Row(s), d.bDZ.Row(s)
		for o, g := range grow {
			zrow[o] = g * d.Act.derivFromOutput(yrow[o])
		}
	}
	tensor.AddMulAtB(d.dW, d.bDZ, d.bX)
	for s := 0; s < d.bDZ.Rows; s++ {
		d.dB.AddScaled(1, d.bDZ.Row(s))
	}
}

// BackwardBatch is AccumulateBatch followed by the input gradient: it
// returns dL/dX (an internal buffer, valid until the next BackwardBatch).
func (d *Dense) BackwardBatch(grad *tensor.Matrix) *tensor.Matrix {
	d.AccumulateBatch(grad)
	d.bDX = tensor.EnsureMatrix(d.bDX, grad.Rows, d.In)
	tensor.MatMulInto(d.bDX, d.bDZ, d.W)
	return d.bDX
}

// ZeroGrad clears the accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.dW.Zero()
	d.dB.Fill(0)
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
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, src.Split(uint64(i))))
	}
	return m
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

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
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
	e.Table.RandInit(src, 0.1)
	return e
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

// ZeroGrad clears accumulated gradients.
func (e *Embedding) ZeroGrad() { e.dTable.Zero() }

// Params exposes the table to an optimizer.
func (e *Embedding) Params() []Param {
	return []Param{{W: e.Table.Data, G: e.dTable.Data}}
}
