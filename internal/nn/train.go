package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// BCEWithLogitsGrad returns the binary cross-entropy loss for a logit z and
// binary label y, together with dL/dz. Computing the gradient in logit space
// keeps training numerically stable.
func BCEWithLogitsGrad(z float64, y int) (loss, grad float64) {
	// loss = log(1 + exp(-z)) for y=1, log(1 + exp(z)) for y=0, in a
	// softplus-stable form.
	p := 1 / (1 + math.Exp(-z))
	grad = p - float64(y)
	if y == 1 {
		loss = softplus(-z)
	} else {
		loss = softplus(z)
	}
	return loss, grad
}

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return 0
	}
	return math.Log1p(math.Exp(x))
}

// MSEGrad returns the squared-error loss for a prediction and target,
// together with dL/dpred.
func MSEGrad(pred, target float64) (loss, grad float64) {
	d := pred - target
	return d * d, 2 * d
}

// Regressor is a trained scalar-output MLP regressor, used by the
// performance-gain estimators.
type Regressor struct {
	net    *MLP
	opt    *Adam
	params []Param       // cached net.Params(), shared backing with the live tensors
	gbuf   tensor.Vector // 1-element output-gradient scratch for Update
}

// NewRegressor builds an untrained MLP regressor with the given input width
// and hidden sizes; it supports both batch fitting and the online updates the
// imperfect-information bargaining strategies need.
func NewRegressor(in int, hidden []int, lr float64, seed uint64) *Regressor {
	sizes := append(append([]int{in}, hidden...), 1)
	net := NewMLP(sizes, ReLU, Identity, rng.New(seed))
	params := net.Params()
	return &Regressor{
		net:    net,
		opt:    NewAdam(params, lr),
		params: params,
		gbuf:   make(tensor.Vector, 1),
	}
}

// Reseed puts the regressor in the state NewRegressor(…, seed) leaves it
// in, allocating no tensor.
func (r *Regressor) Reseed(seed uint64) {
	r.net.Reseed(rng.New(seed))
	r.opt.Reset()
}

// Predict returns the regression output for x.
func (r *Regressor) Predict(x tensor.Vector) float64 { return r.net.Forward(x)[0] }

// Update performs one gradient step on a single (x, target) pair and returns
// the pre-update squared error.
func (r *Regressor) Update(x tensor.Vector, target float64) float64 {
	pred := r.net.Forward(x)
	loss, g := MSEGrad(pred[0], target)
	r.gbuf[0] = g
	r.net.Backward(r.gbuf)
	r.opt.Step(5)
	return loss
}
