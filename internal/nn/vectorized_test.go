package nn

// Tests pinning the vectorized minibatch path to the per-sample path it
// replaced: batch forward/backward must produce bit-identical activations
// and gradients, and TrainClassifier must reproduce golden probability bits
// captured from the per-sample implementation before the rewrite.

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// gaussMatrix fills an n×d matrix and a label vector deterministically.
func gaussMatrix(seed uint64, n, d int) (*tensor.Matrix, []int) {
	src := rng.New(seed)
	X := tensor.NewMatrix(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < d; j++ {
			v := src.Gauss(0, 1)
			X.Set(i, j, v)
			if j%2 == 0 {
				s += v
			} else {
				s -= 0.5 * v
			}
		}
		if s > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// sameBitsOrNaN reports whether a and b are the same float64 bits or both
// NaN (which NaN operand's payload an add keeps is the compiler's choice).
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDenseBatchMatchesPerSample runs the same minibatch through the
// batched and per-sample Dense paths and demands bit-identical outputs,
// parameter gradients, and input gradients. Besides Gaussian rows the
// batch carries an all −0 input row (every pre-activation is then
// exactly 0 + b, on the ReLU's boundary; a Dense pre-activation is never
// itself −0, since its dot product starts at +0) with a −0 upstream
// gradient, and, in the "nan" case, a row with one NaN input, whose
// pre-activations are all NaN: ReLU keeps NaN forward and its derivative
// zeroes it backward, so that row's gradient must be skipped, not added.
func TestDenseBatchMatchesPerSample(t *testing.T) {
	for _, nanRow := range []bool{false, true} {
		for _, act := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
			batched := NewDense(7, 5, act, rng.New(12))
			sample := NewDense(7, 5, act, rng.New(12))

			X, _ := gaussMatrix(5, 9, 7)
			G, _ := gaussMatrix(6, 9, 5)
			X.Row(2).Fill(math.Copysign(0, -1))
			G.Set(2, 1, math.Copysign(0, -1))
			if nanRow {
				X.Set(6, 3, math.NaN())
			}

			outB := batched.ForwardBatch(X)
			dxB := batched.BackwardBatch(G)

			for s := 0; s < X.Rows; s++ {
				out := sample.Forward(append(tensor.Vector(nil), X.Row(s)...))
				for o, v := range out {
					if !sameBitsOrNaN(v, outB.At(s, o)) {
						t.Fatalf("%v nan=%v: forward[%d][%d] %v != %v", act, nanRow, s, o, outB.At(s, o), v)
					}
				}
				dx := sample.Backward(G.Row(s))
				for j, v := range dx {
					if !sameBitsOrNaN(v, dxB.At(s, j)) {
						t.Fatalf("%v nan=%v: dX[%d][%d] %v != %v", act, nanRow, s, j, dxB.At(s, j), v)
					}
				}
			}
			for i := range batched.dW.Data {
				if !sameBitsOrNaN(batched.dW.Data[i], sample.dW.Data[i]) {
					t.Fatalf("%v nan=%v: dW[%d] diverged: %v, per-sample %v", act, nanRow, i, batched.dW.Data[i], sample.dW.Data[i])
				}
			}
			for i := range batched.dB {
				if !sameBitsOrNaN(batched.dB[i], sample.dB[i]) {
					t.Fatalf("%v nan=%v: dB[%d] diverged", act, nanRow, i)
				}
			}
			if act == ReLU {
				for i, v := range batched.dW.Data {
					if math.IsNaN(v) {
						t.Fatalf("ReLU nan=%v: dW[%d] is NaN: the NaN row's zeroed gradient was added", nanRow, i)
					}
				}
			}
		}
	}
}

// TestMLPBatchMatchesPerSample does the same through a full MLP stack.
func TestMLPBatchMatchesPerSample(t *testing.T) {
	batched := NewMLP([]int{6, 8, 4, 1}, ReLU, Identity, rng.New(21))
	sample := NewMLP([]int{6, 8, 4, 1}, ReLU, Identity, rng.New(21))

	X, _ := gaussMatrix(7, 11, 6)
	G, _ := gaussMatrix(8, 11, 1)

	outB := batched.ForwardBatch(X)
	batched.BackwardBatch(G)
	for s := 0; s < X.Rows; s++ {
		out := sample.Forward(append(tensor.Vector(nil), X.Row(s)...))
		if math.Float64bits(out[0]) != math.Float64bits(outB.At(s, 0)) {
			t.Fatalf("forward[%d] %v != %v", s, outB.At(s, 0), out[0])
		}
		sample.Backward(G.Row(s))
	}
	pb, ps := batched.Params(), sample.Params()
	for k := range pb {
		for i := range pb[k].G {
			if math.Float64bits(pb[k].G[i]) != math.Float64bits(ps[k].G[i]) {
				t.Fatalf("param %d grad %d diverged", k, i)
			}
		}
	}
}

// TestTrainClassifierGoldenBits pins the vectorized trainer to probability
// bits captured from the per-sample implementation before the rewrite.
func TestTrainClassifierGoldenBits(t *testing.T) {
	X, y := gaussMatrix(42, 160, 6)
	c := TrainClassifier(X, y, TrainConfig{Hidden: []int{16, 8}, Epochs: 12, BatchSize: 32, Seed: 9, ClipNorm: 5})
	golden := map[int]uint64{
		0:   0x3feb1d4e5f65345a,
		7:   0x3fc858b5d003aca0,
		63:  0x3fbc8406c799ff8a,
		159: 0x3fe5fea86c797e22,
	}
	for i, want := range golden {
		got := math.Float64bits(c.PredictProba(X.Row(i)))
		if got != want {
			t.Errorf("proba[%d] bits = %#x, want %#x", i, got, want)
		}
	}
	// PredictAll's vectorized pass must agree with per-row Predict.
	all := c.PredictAll(X)
	for i := range all {
		if all[i] != c.Predict(X.Row(i)) {
			t.Fatalf("PredictAll[%d] = %d, Predict = %d", i, all[i], c.Predict(X.Row(i)))
		}
	}
}
