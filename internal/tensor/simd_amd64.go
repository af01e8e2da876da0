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

// addRows8AVX2 sets drow[j] = (…(drow[j] + cs[0]·rows[0][j]) + …) +
// cs[7]·rows[7][j] for j < len(drow).
//
//go:noescape
func addRows8AVX2(drow []float64, cs *[8]float64, rows *[8][]float64)

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
