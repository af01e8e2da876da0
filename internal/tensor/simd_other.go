//go:build !amd64

package tensor

// Without amd64 assembly every kernel runs its scalar Go loop.
var haveAVX2 = false

func axpyAVX2(alpha float64, x, y []float64) { panic("tensor: no AVX2 kernels") }

func addRows8AVX2(drow []float64, cs *[8]float64, b []float64, ks *[8]int, stride int) {
	panic("tensor: no AVX2 kernels")
}

func mulABtAVX2(dst, a, bt []float64, rows, k, n int) { panic("tensor: no AVX2 kernels") }

func adamAVX2(w, g, m, v []float64, s *AdamStep) { panic("tensor: no AVX2 kernels") }

func biasAVX2(x, bias []float64, relu bool) { panic("tensor: no AVX2 kernels") }

func reluSumAVX2(dst, x, y []float64) { panic("tensor: no AVX2 kernels") }

func reluMaskAVX2(g, v []float64) { panic("tensor: no AVX2 kernels") }

func reluGradAVX2(dst, g, y []float64) { panic("tensor: no AVX2 kernels") }

func addMulAtBAVX2(t, a, b []float64, rows, m, n int) { panic("tensor: no AVX2 kernels") }
