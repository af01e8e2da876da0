package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// PredictScratch holds the activation buffers of the batched inference
// paths. It is owned by the caller — one scratch per scan site — so a
// whole-pool prediction allocates nothing in steady state and never
// disturbs the training caches (lastX/lastY and the minibatch buffers),
// which belong to the gradient paths. The zero value is ready to use.
type PredictScratch struct {
	a, b tensor.Matrix // ping-pong activation buffers
	wt   []float64     // a layer's weights transposed for the product
}

// PredictBatchInto runs every row of X through the network using the
// caller's scratch buffers and returns the output matrix (rows are
// samples). One matrix product per layer; row i is bit-identical to
// Forward(X.Row(i)) because the batched kernel keeps the per-sample
// summation order. The returned matrix is one of the scratch buffers,
// valid until the next call with the same scratch. Unlike ForwardBatch it
// caches nothing: interleaving it with per-sample or minibatch training
// leaves their backward state untouched.
func (m *MLP) PredictBatchInto(sc *PredictScratch, X *tensor.Matrix) *tensor.Matrix {
	if X.Cols != m.In() {
		panic(fmt.Sprintf("nn: PredictBatchInto input width %d, want %d", X.Cols, m.In()))
	}
	cur := X
	for li, l := range m.Layers {
		out := &sc.a
		if li%2 == 1 {
			out = &sc.b
		}
		tensor.EnsureMatrix(out, cur.Rows, l.Out)
		tensor.MulABtInto(out, cur, l.W, &sc.wt)
		l.Act.addBiasAct(out.Data, l.B)
		cur = out
	}
	return cur
}

// PredictBatchInto predicts every row of X through one batched forward
// pass, appending into dst (reset to length 0 first) and returning it.
// Element i is bit-identical to Predict(X.Row(i)).
func (r *Regressor) PredictBatchInto(sc *PredictScratch, X *tensor.Matrix, dst []float64) []float64 {
	z := r.net.PredictBatchInto(sc, X)
	dst = dst[:0]
	for i := 0; i < X.Rows; i++ {
		dst = append(dst, z.At(i, 0))
	}
	return dst
}

// ForwardMeanBatchInto computes the mean embedding of each id set into the
// rows of dst (reshaped through EnsureMatrix) and returns it. Row i is
// bit-identical to ForwardMean(idsets[i]) — same accumulate-then-scale
// order — and the backward cache is untouched, so batched inference can
// interleave freely with training. It panics on empty id sets or
// out-of-range ids.
func (e *Embedding) ForwardMeanBatchInto(dst *tensor.Matrix, idsets [][]int) *tensor.Matrix {
	dst = tensor.EnsureMatrix(dst, len(idsets), e.Dim)
	for i, ids := range idsets {
		if len(ids) == 0 {
			panic("nn: Embedding.ForwardMeanBatchInto on empty id set")
		}
		row := dst.Row(i)
		row.Fill(0)
		for _, id := range ids {
			if id < 0 || id >= e.NumIDs {
				panic(fmt.Sprintf("nn: embedding id %d out of range [0,%d)", id, e.NumIDs))
			}
			row.AddScaled(1, e.Table.Row(id))
		}
		row.Scale(1 / float64(len(ids)))
	}
	return dst
}
