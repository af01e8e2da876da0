package nn

import "fmt"

// This file is the snapshot surface of the package: enough state access to
// freeze a training run mid-stream and continue it bit-identically in
// another process. A model's state is its parameter tensors in Params()
// order plus its optimizer's moments; gradients are transient (every
// optimizer Step zeroes the gradients it consumed) and are not part of it.

// CaptureParams deep-copies the weight tensors of params, in order.
func CaptureParams(params []Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

// RestoreParams copies previously captured weights back into params. The
// capture must come from an identically shaped model.
func RestoreParams(params []Param, weights [][]float64) error {
	if len(weights) != len(params) {
		return fmt.Errorf("nn: restore: %d tensors captured, model has %d", len(weights), len(params))
	}
	for i, p := range params {
		if len(weights[i]) != len(p.W) {
			return fmt.Errorf("nn: restore: tensor %d has %d weights, model wants %d", i, len(weights[i]), len(p.W))
		}
		copy(p.W, weights[i])
	}
	return nil
}

// AdamState is a deep copy of an Adam optimizer's moments, one tensor per
// entry of the parameter list the optimizer is bound to, in its order.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State captures the optimizer's step count and moments.
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(a.params)), V: make([][]float64, len(a.params))}
	off := 0
	for i, p := range a.params {
		n := len(p.W)
		st.M[i] = append(make([]float64, 0, n), a.m[off:off+n]...)
		st.V[i] = append(make([]float64, 0, n), a.v[off:off+n]...)
		off += n
	}
	return st
}

// Restore overwrites the optimizer's moments from a capture taken against
// an identically shaped parameter list.
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.params) || len(st.V) != len(a.params) {
		return fmt.Errorf("nn: adam restore: %d moment tensors, model has %d params", len(st.M), len(a.params))
	}
	off := 0
	for i, p := range a.params {
		n := len(p.W)
		if len(st.M[i]) != n || len(st.V[i]) != n {
			return fmt.Errorf("nn: adam restore: tensor %d has %d moments, model wants %d", i, len(st.M[i]), n)
		}
		copy(a.m[off:off+n], st.M[i])
		copy(a.v[off:off+n], st.V[i])
		off += n
	}
	a.t = st.T
	return nil
}

// Params exposes the regressor's trainable parameters (its MLP's, in
// Params() order) for state capture. The slice is the regressor's cached
// parameter list — the same one its optimizer steps — so captures and
// restores see the live tensors.
func (r *Regressor) Params() []Param { return r.params }

// Optimizer exposes the regressor's optimizer for state capture.
func (r *Regressor) Optimizer() *Adam { return r.opt }
