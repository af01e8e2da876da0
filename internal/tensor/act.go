package tensor

import "fmt"

// The elementwise passes of a layer: the bias-and-activation epilogue of a
// forward product, and the ReLU masks of a backward pass. Each computes
// exactly what the written-out scalar loop computes. The ReLU compares are
// Go's: v < 0 is false for NaN and −0, so both pass through the forward
// ReLU unchanged, and the backward masks test v <= 0 and y > 0 with the
// same NaN and −0 answers; the AVX2 lanes select with the ordered compares
// that give those answers instead of branching.

// AddBias adds bias to every row of x in place: x holds whole rows of
// len(bias) elements, and x[r·n+j] becomes x[r·n+j] + bias[j]. It panics
// unless len(x) is a multiple of len(bias).
func AddBias(x, bias []float64) { addBias(x, bias, false) }

// AddBiasReLU is AddBias followed by ReLU: each element becomes
// v = x + bias, or +0 where v < 0.
func AddBiasReLU(x, bias []float64) { addBias(x, bias, true) }

func addBias(x, bias []float64, relu bool) {
	n := len(bias)
	if n == 0 || len(x)%n != 0 {
		if len(x) == 0 {
			return
		}
		panic(fmt.Sprintf("tensor: bias of %d for %d elements", n, len(x)))
	}
	j0 := 0
	if haveAVX2 && n >= 4 {
		j0 = n &^ 3
		biasAVX2(x, bias, relu)
	}
	for r := 0; r < len(x); r += n {
		row := x[r : r+n]
		for j := j0; j < n; j++ {
			v := row[j] + bias[j]
			if relu && v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

// ReLUSum sets dst[i] = ReLU(x[i] + y[i]), the sum taken in that operand
// order, or dst[i] = ReLU(x[i]) when y is nil. It panics if x or a non-nil
// y is shorter than dst.
func ReLUSum(dst, x, y []float64) {
	n := len(dst)
	x = x[:n]
	if y != nil {
		y = y[:n]
	}
	i := 0
	if haveAVX2 && n >= 4 {
		i = n &^ 3
		reluSumAVX2(dst[:i], x, y)
	}
	for ; i < n; i++ {
		v := x[i]
		if y != nil {
			v += y[i]
		}
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// ReLUMask sets g[i] = +0 wherever v[i] <= 0: the gradient mask of a ReLU
// whose input was v. It panics if v is shorter than g.
func ReLUMask(g, v []float64) {
	n := len(g)
	v = v[:n]
	i := 0
	if haveAVX2 && n >= 4 {
		i = n &^ 3
		reluMaskAVX2(g[:i], v)
	}
	for ; i < n; i++ {
		if v[i] <= 0 {
			g[i] = 0
		}
	}
}

// ReLUGrad sets dst[i] = g[i]·d, where d is 1 if y[i] > 0 and 0 otherwise:
// the pre-activation gradient of a ReLU whose output was y. The product is
// always taken, so an infinite or NaN g[i] with d = 0 gives NaN. It panics
// if g or y is shorter than dst.
func ReLUGrad(dst, g, y []float64) {
	n := len(dst)
	g, y = g[:n], y[:n]
	i := 0
	if haveAVX2 && n >= 4 {
		i = n &^ 3
		reluGradAVX2(dst[:i], g, y)
	}
	for ; i < n; i++ {
		d := 0.0
		if y[i] > 0 {
			d = 1
		}
		dst[i] = g[i] * d
	}
}
