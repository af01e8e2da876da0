package tensor

// haveAVX2 selects the assembly kernels in simd_amd64.s. It is set once, at
// start-up: the CPU must report AVX and AVX2 and the OS must save the YMM
// registers across context switches.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The kernels below cover only whole four-lane blocks: their Go callers
// check every length, pass slices trimmed to a multiple of four elements
// (rows and columns for mulABtAVX2) and finish the tail themselves.

// axpyAVX2 sets y[j] = y[j] + alpha·x[j] for j < len(y).
//
//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

// addRows8AVX2 sets drow[j] = (…(drow[j] + cs[0]·r0[j]) + …) + cs[7]·r7[j]
// for j < len(drow), where rt is b[ks[t]·stride:].
//
//go:noescape
func addRows8AVX2(drow []float64, cs *[8]float64, b []float64, ks *[8]int, stride int)

// mulABtAVX2 sets dst[i][j] to the sum of a[i][t]·bt[t][j] for t = 0..k-1,
// added to +0 in ascending t, for every row i < rows and column j < n&^3.
// The row lengths are k for a, n for dst and n&^3 for bt.
//
//go:noescape
func mulABtAVX2(dst, a, bt []float64, rows, k, n int)

// adamAVX2 applies s to every weight of w, exactly as AdamStep.Apply's
// scalar loop does.
//
//go:noescape
func adamAVX2(w, g, m, v []float64, s *AdamStep)

// biasAVX2 sets x[j] = x[j] + bias[j%n] in the first n&^3 columns of
// every row of x (n = len(bias)), then +0 wherever that is below 0 when
// relu is set.
//
//go:noescape
func biasAVX2(x, bias []float64, relu bool)

// reluSumAVX2 sets dst[i] = x[i] + y[i] (x[i] when y is empty), or +0
// where that is below 0, for i < len(dst).
//
//go:noescape
func reluSumAVX2(dst, x, y []float64)

// reluMaskAVX2 sets g[i] = +0 wherever v[i] <= 0, for i < len(g).
//
//go:noescape
func reluMaskAVX2(g, v []float64)

// reluGradAVX2 sets dst[i] = g[i]·1 where y[i] > 0 and g[i]·(+0)
// elsewhere, for i < len(dst).
//
//go:noescape
func reluGradAVX2(dst, g, y []float64)

// addMulAtBAVX2 adds a[s][i]·b[s][j] to t[j][i] for s = 0..rows-1 in
// order, skipping a coefficient a[s][i] that is ±0, for every output
// i < m&^3 and column j < n. The row lengths are m for a, n for b and
// m&^3 for t; rows must be at least 1.
//
//go:noescape
func addMulAtBAVX2(t, a, b []float64, rows, m, n int)
