package vfl

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TaskParty holds the label-owning side of a VFL course: its own feature
// columns and the labels. It never sees the data party's matrix.
type TaskParty struct {
	X *tensor.Matrix
	Y []int
}

// DataParty holds the feature-selling side: its columns only, no labels.
type DataParty struct {
	X *tensor.Matrix
}

// SplitMLP is the paper's DNN base model as an actual split-learning
// protocol. Each party owns a bottom linear map into a shared hidden width
// h1; the task party fuses the two partial pre-activations, applies ReLU,
// and runs the top layers (h1 → h2 → 1). During training the only values
// crossing the party boundary are the data party's h1-dimensional partial
// activation (forward) and the task party's h1-dimensional gradient
// (backward); Comm counts them.
//
// The fused first layer, ReLU, h2 layer and output form the 3-layer MLP with
// embedding dimensions 64 and 32 described in §4.1.2.
type SplitMLP struct {
	taskBottom *nn.Dense // taskD → h1, identity (partial pre-activation)
	dataBottom *nn.Dense // dataD → h1, identity; nil when no data party
	top        *nn.MLP   // h1 → h2 → 1 (ReLU hidden, identity out)
	cfg        Config
	ps         []nn.Param // params(), built once in NewSplitMLP
	Comm       CommStats

	lastFused tensor.Vector // ReLU output the tests' per-sample forward caches for backward

	// Minibatch buffers, reused across batches and epochs by the vectorized
	// training path.
	fusedB *tensor.Matrix // fused ReLU activations of the last forwardBatch
	xtB    *tensor.Matrix // gathered task-party minibatch
	xdB    *tensor.Matrix // gathered data-party minibatch
	gradB  *tensor.Matrix // per-sample output gradients
}

// NewSplitMLP constructs the split model. dataD may be zero for isolated
// training (no data party).
func NewSplitMLP(taskD, dataD int, cfg Config) *SplitMLP {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed)
	m := &SplitMLP{
		cfg:        cfg,
		taskBottom: nn.NewDense(taskD, cfg.Hidden1, nn.Identity, src.Split(1)),
		top:        nn.NewMLP([]int{cfg.Hidden1, cfg.Hidden2, 1}, nn.ReLU, nn.Identity, src.Split(2)),
	}
	if dataD > 0 {
		m.dataBottom = nn.NewDense(dataD, cfg.Hidden1, nn.Identity, src.Split(3))
	}
	m.ps = m.params()
	return m
}

// forwardBatch runs a whole minibatch through the split model — both
// bottoms as one matrix product each, fused ReLU, batched top — caching the
// fused activations for backwardBatch. Row s is bit-identical to
// forward(xt.Row(s), xd.Row(s)). xd must be nil exactly when the model was
// built without a data party.
func (m *SplitMLP) forwardBatch(xt, xd *tensor.Matrix) *tensor.Matrix {
	zt := m.taskBottom.ForwardBatch(xt)
	m.fusedB = tensor.EnsureMatrix(m.fusedB, xt.Rows, m.cfg.Hidden1)
	var zd []float64
	if m.dataBottom != nil {
		// Data party computes its partial activations and sends rows×h1
		// floats in one message.
		zd = m.dataBottom.ForwardBatch(xd).Data
	}
	tensor.ReLUSum(m.fusedB.Data, zt.Data, zd)
	return m.top.ForwardBatch(m.fusedB)
}

// backwardBatch propagates per-sample output gradients through the batched
// split model; the task party sends rows×h1 gradient floats back in one
// message. Gradient accumulation is bit-identical to per-sample backward
// calls in row order. The bottoms are first layers, so they accumulate
// their parameter gradients only: their input gradient has no reader.
func (m *SplitMLP) backwardBatch(grad *tensor.Matrix) {
	gz := m.top.BackwardBatch(grad)
	tensor.ReLUMask(gz.Data, m.fusedB.Data)
	m.taskBottom.AccumulateBatch(gz)
	if m.dataBottom != nil {
		m.dataBottom.AccumulateBatch(gz)
	}
}

func (m *SplitMLP) params() []nn.Param {
	ps := append(m.taskBottom.Params(), m.top.Params()...)
	if m.dataBottom != nil {
		ps = append(ps, m.dataBottom.Params()...)
	}
	return ps
}

// Train fits the split model with minibatch momentum SGD on BCE-with-logits.
// data may be nil for isolated training. Each minibatch runs through the
// vectorized batch path — one matrix product per layer and party instead of
// per-sample vector products, with activation and gradient buffers reused
// across epochs — producing weights bit-identical to the per-sample loop it
// replaced (the batch kernels keep the per-sample summation order).
func (m *SplitMLP) Train(task *TaskParty, data *DataParty) {
	if (data == nil) != (m.dataBottom == nil) {
		panic("vfl: SplitMLP built for a different party configuration")
	}
	opt := nn.NewSGD(m.ps, m.cfg.LR, 0.9)
	shuffle := rng.New(m.cfg.Seed).Split(4)
	n := task.X.Rows
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		perm := shuffle.Perm(n)
		for start := 0; start < n; start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > n {
				end = n
			}
			batch := perm[start:end]
			m.xtB = tensor.GatherRowsInto(m.xtB, task.X, batch)
			var xd *tensor.Matrix
			if data != nil {
				m.xdB = tensor.GatherRowsInto(m.xdB, data.X, batch)
				xd = m.xdB
			}
			out := m.forwardBatch(m.xtB, xd)
			m.gradB = tensor.EnsureMatrix(m.gradB, len(batch), 1)
			for s, i := range batch {
				_, g := nn.BCEWithLogitsGrad(out.At(s, 0), task.Y[i])
				m.gradB.Set(s, 0, g/float64(len(batch)))
			}
			m.backwardBatch(m.gradB)
			opt.Step(5)
			if data != nil {
				// One activation batch up, one gradient batch down.
				m.Comm.FloatsExchange += len(batch) * 2 * m.cfg.Hidden1
				m.Comm.Rounds++
			}
		}
	}
}

// PredictProbaBatch returns P(y=1) for every row of Xt (with Xd's matching
// rows; Xd is nil for isolated models) through one vectorized forward pass.
// Element i is bit-identical to PredictProba on row i.
func (m *SplitMLP) PredictProbaBatch(Xt, Xd *tensor.Matrix) []float64 {
	z := m.forwardBatch(Xt, Xd)
	out := make([]float64, Xt.Rows)
	for i := range out {
		out[i] = sigmoid(z.At(i, 0))
	}
	return out
}

func sigmoid(x float64) float64 {
	// Stable logistic.
	if x >= 0 {
		e := math.Exp(-x)
		return 1 / (1 + e)
	}
	e := math.Exp(x)
	return e / (1 + e)
}
