package tensor

// Tests of the batched training kernels: each must be bit-identical to the
// per-sample operation it replaces (the vectorized NN path's determinism
// rests on exactly this), and the buffer helpers must reuse storage.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func randMatrix(seed uint64, rows, cols int, sparse bool) *Matrix {
	src := rng.New(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		v := src.Gauss(0, 1)
		// Exact zeros exercise the zero-skip paths.
		if sparse && src.IntN(3) == 0 {
			v = 0
		}
		m.Data[i] = v
	}
	return m
}

func TestMulABtIntoMatchesMulVec(t *testing.T) {
	X := randMatrix(1, 6, 4, false)
	W := randMatrix(2, 5, 4, true)
	dst := NewMatrix(6, 5)
	var bt []float64
	MulABtInto(dst, X, W, &bt)
	for s := 0; s < X.Rows; s++ {
		want := W.MulVec(X.Row(s))
		for o, v := range want {
			if math.Float64bits(v) != math.Float64bits(dst.At(s, o)) {
				t.Fatalf("dst[%d][%d] = %v, MulVec gives %v", s, o, dst.At(s, o), v)
			}
		}
	}
}

func TestMatMulIntoMatchesMulVecT(t *testing.T) {
	DZ := randMatrix(3, 6, 5, true) // sparse: exercise the zero skip
	W := randMatrix(4, 5, 4, false)
	dst := NewMatrix(6, 4)
	dst.Fill(99) // MatMulInto must overwrite stale buffer contents
	MatMulInto(dst, DZ, W)
	for s := 0; s < DZ.Rows; s++ {
		want := W.MulVecT(DZ.Row(s))
		for j, v := range want {
			if math.Float64bits(v) != math.Float64bits(dst.At(s, j)) {
				t.Fatalf("dst[%d][%d] = %v, MulVecT gives %v", s, j, dst.At(s, j), v)
			}
		}
	}
}

func TestAddMulAtBMatchesAddOuter(t *testing.T) {
	DZ := randMatrix(5, 6, 5, true)
	X := randMatrix(6, 6, 4, false)
	got := NewMatrix(5, 4)
	var gt []float64
	AddMulAtB(got, DZ, X, &gt)
	want := NewMatrix(5, 4)
	for s := 0; s < DZ.Rows; s++ {
		want.AddOuter(1, DZ.Row(s), X.Row(s))
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("Data[%d] = %v, per-sample AddOuter gives %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestEnsureMatrixReusesStorage(t *testing.T) {
	m := NewMatrix(8, 4)
	tail := EnsureMatrix(m, 3, 4)
	if &tail.Data[0] != &m.Data[0] {
		t.Fatal("EnsureMatrix reallocated a shrinking reshape")
	}
	if tail.Rows != 3 || tail.Cols != 4 || len(tail.Data) != 12 {
		t.Fatalf("reshaped to %dx%d len %d", tail.Rows, tail.Cols, len(tail.Data))
	}
	grown := EnsureMatrix(tail, 8, 4)
	if &grown.Data[0] != &m.Data[0] {
		t.Fatal("EnsureMatrix reallocated a growth within capacity")
	}
	bigger := EnsureMatrix(grown, 9, 4)
	if bigger.Rows != 9 || len(bigger.Data) != 36 {
		t.Fatalf("grew to %dx%d len %d", bigger.Rows, bigger.Cols, len(bigger.Data))
	}
	if from := EnsureMatrix(nil, 2, 2); from.Rows != 2 || from.Cols != 2 {
		t.Fatal("EnsureMatrix(nil) failed")
	}
}

func TestGatherRowsInto(t *testing.T) {
	src := randMatrix(7, 6, 3, false)
	var buf *Matrix
	buf = GatherRowsInto(buf, src, []int{4, 0, 2})
	for i, r := range []int{4, 0, 2} {
		for j := 0; j < 3; j++ {
			if buf.At(i, j) != src.At(r, j) {
				t.Fatalf("gathered[%d][%d] = %v, want %v", i, j, buf.At(i, j), src.At(r, j))
			}
		}
	}
	// Reuse with a shorter row set keeps the same storage.
	again := GatherRowsInto(buf, src, []int{1})
	if &again.Data[0] != &buf.Data[0] {
		t.Fatal("GatherRowsInto reallocated within capacity")
	}
	if again.Rows != 1 || again.At(0, 0) != src.At(1, 0) {
		t.Fatal("GatherRowsInto reuse gathered wrong rows")
	}
}

// The sweep tests below drive the register-blocked kernels through every
// edge of their blocking, on every kernel path the CPU has (onEachPath):
// row counts on both sides of the 2-row block and of a 128-sample
// minibatch, widths on both sides of the 4-column, 4-lane, 16-column and
// 8-coefficient blocks (the estimators' 3, 16, 32 and 64 among them),
// operands that start off a 32-byte boundary, coefficient groups long
// enough to fill several 8-blocks, zero and negative-zero coefficients,
// and ±Inf/NaN operands that only a zero coefficient ever meets. Each
// path must match a reference computed by the scalar code.
var (
	sweepRows   = []int{1, 2, 3, 127, 128, 129}
	sweepWidths = []int{1, 3, 4, 5, 7, 8, 9, 10, 14, 16, 19, 32, 64}
)

// unaligned returns a copy of m whose data starts off elements into its
// allocation, so that for off%4 != 0 no row of it is 32-byte aligned.
func unaligned(m *Matrix, off int) *Matrix {
	buf := make([]float64, off+len(m.Data))
	copy(buf[off:], m.Data)
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: buf[off:]}
}

// sweepMatrix fills a rows×cols matrix with Gaussian values, a quarter of
// them replaced by 0 or -0.
func sweepMatrix(src *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Gauss(0, 1)
		if src.IntN(4) == 0 {
			m.Data[i] = 0
			if src.IntN(2) == 0 {
				m.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return m
}

// poisonBehindZeros zeroes (with mixed signs) coefficient k of every group
// — coefficient column k of coef when byCol, row k otherwise — and fills
// row k of the multiplied operand with ±Inf and NaN. A kernel that applied
// a zero coefficient would turn finite results into NaN.
func poisonBehindZeros(coef, operand *Matrix, k int, byCol bool) {
	neg := math.Copysign(0, -1)
	if byCol {
		for i := 0; i < coef.Rows; i++ {
			coef.Set(i, k, []float64{0, neg}[i%2])
		}
	} else {
		for j := 0; j < coef.Cols; j++ {
			coef.Set(k, j, []float64{0, neg}[j%2])
		}
	}
	row := operand.Row(k)
	for j := range row {
		row[j] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[j%3]
	}
}

// maxNonzero returns the most nonzero entries in any row of m (any column
// when byCol).
func maxNonzero(m *Matrix, byCol bool) int {
	outer, inner := m.Rows, m.Cols
	if byCol {
		outer, inner = inner, outer
	}
	best := 0
	for o := 0; o < outer; o++ {
		n := 0
		for i := 0; i < inner; i++ {
			r, c := o, i
			if byCol {
				r, c = i, o
			}
			if m.At(r, c) != 0 {
				n++
			}
		}
		best = max(best, n)
	}
	return best
}

func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: Data[%d] (row %d col %d) = %v (%#x), reference %v (%#x)",
				what, i, i/want.Cols, i%want.Cols, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func TestMulABtIntoSweep(t *testing.T) {
	src := rng.New(21)
	for _, m := range sweepRows {
		for _, n := range sweepWidths {
			for _, k := range sweepWidths {
				X := unaligned(sweepMatrix(src, m, k), (m+k)%4)
				W := unaligned(sweepMatrix(src, n, k), (n+k)%3)
				want := NewMatrix(m, n)
				for s := 0; s < m; s++ {
					copy(want.Row(s), W.MulVec(X.Row(s)))
				}
				var bt []float64
				onEachPath(func(path string) {
					dst := NewMatrix(m, n)
					dst.Fill(math.NaN()) // stale contents must be overwritten
					MulABtInto(dst, X, W, &bt)
					sameBits(t, fmt.Sprintf("%s MulABtInto %dx%d·(%dx%d)ᵀ", path, m, k, n, k), dst, want)
				})
			}
		}
	}
}

func TestMatMulIntoSweep(t *testing.T) {
	src := rng.New(22)
	filled := false
	for _, m := range sweepRows {
		for _, k := range sweepWidths {
			for _, n := range sweepWidths {
				DZ := sweepMatrix(src, m, k)
				W := sweepMatrix(src, k, n)
				poisonBehindZeros(DZ, W, k/2, true)
				W = unaligned(W, (k+n)%4)
				filled = filled || maxNonzero(DZ, false) >= 8
				want := NewMatrix(m, n)
				for s := 0; s < m; s++ {
					copy(want.Row(s), W.MulVecT(DZ.Row(s)))
				}
				onEachPath(func(path string) {
					dst := unaligned(NewMatrix(m, n), m%4)
					dst.Fill(99) // stale contents must be overwritten
					MatMulInto(dst, DZ, W)
					what := fmt.Sprintf("%s MatMulInto %dx%d·%dx%d", path, m, k, k, n)
					sameBits(t, what, dst, want)
					for i, v := range dst.Data {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: Data[%d] = %v: a zero coefficient met the poisoned row", what, i, v)
						}
					}
				})
			}
		}
	}
	if !filled {
		t.Fatal("no row had 8 nonzero coefficients: the blocked path went untested")
	}
}

func TestAddMulAtBSweep(t *testing.T) {
	src := rng.New(23)
	filled := false
	for _, s := range sweepRows {
		for _, m := range sweepWidths {
			for _, n := range sweepWidths {
				DZ := sweepMatrix(src, s, m)
				X := sweepMatrix(src, s, n)
				poisonBehindZeros(DZ, X, s/2, false)
				filled = filled || maxNonzero(DZ, true) >= 8
				start := sweepMatrix(src, m, n) // accumulate onto nonzero contents
				want := start.Clone()
				withAVX2(false, func() {
					for r := 0; r < s; r++ {
						want.AddOuter(1, DZ.Row(r), X.Row(r))
					}
				})
				onEachPath(func(path string) {
					got := unaligned(start, (m+n)%4)
					var gt []float64
					AddMulAtB(got, DZ, X, &gt)
					what := fmt.Sprintf("%s AddMulAtB (%dx%d)ᵀ·%dx%d", path, s, m, s, n)
					sameBits(t, what, got, want)
					for i, v := range got.Data {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: Data[%d] = %v: a zero coefficient met the poisoned row", what, i, v)
						}
					}
				})
			}
		}
	}
	if !filled {
		t.Fatal("no column had 8 nonzero coefficients: the blocked path went untested")
	}
}

// TestKernelsAllocateNothing: the training kernels run once per layer per
// minibatch, and the axpy and Adam kernels once per tensor per sample, and
// none may touch the heap on any kernel path (MulABtInto's transpose
// buffer is the caller's, grown on the first call).
func TestKernelsAllocateNothing(t *testing.T) {
	src := rng.New(24)
	X, W, DZ := sweepMatrix(src, 128, 19), sweepMatrix(src, 64, 19), sweepMatrix(src, 128, 64)
	Y, DX, DW := NewMatrix(128, 64), NewMatrix(128, 19), NewMatrix(64, 19)
	u, v, w := sweepMatrix(src, 1, 64).Row(0), sweepMatrix(src, 1, 19).Row(0), sweepMatrix(src, 1, 19).Row(0)
	wts, grads, m1, m2 := sweepMatrix(src, 1, 67).Row(0), NewVector(67), NewVector(67), NewVector(67)
	adam := AdamStep{B1: 0.9, D1: 0.1, B2: 0.999, D2: 0.001, C1: 0.1, C2: 0.001, LR: 1e-3, Eps: 1e-8, Scale: 0.5, Clip: true}
	var bt, gt []float64
	onEachPath(func(path string) {
		for name, f := range map[string]func(){
			"MulABtInto":     func() { MulABtInto(Y, X, W, &bt) },
			"MatMulInto":     func() { MatMulInto(DX, DZ, W) },
			"AddMulAtB":      func() { AddMulAtB(DW, DZ, X, &gt) },
			"AddOuter":       func() { DW.AddOuter(1e-3, u, v) },
			"MulVecTInto":    func() { DW.MulVecTInto(w, u) },
			"AddScaled":      func() { w.AddScaled(-1e-3, v) },
			"AdamStep.Apply": func() { adam.Apply(wts, grads, m1, m2) },
		} {
			if allocs := testing.AllocsPerRun(5, f); allocs != 0 {
				t.Errorf("%s %s allocates %v times per call", path, name, allocs)
			}
		}
	})
}

// TestKernelsEmptyShapes: an empty batch or an empty inner dimension is a
// no-op for the accumulating kernel and yields zeros for the overwriting
// ones.
func TestKernelsEmptyShapes(t *testing.T) {
	onEachPath(func(path string) {
		dw := NewMatrix(3, 6)
		dw.Fill(7)
		var gt []float64
		AddMulAtB(dw, NewMatrix(0, 3), NewMatrix(0, 6), &gt)
		dx := NewMatrix(4, 6)
		dx.Fill(7)
		MatMulInto(dx, NewMatrix(4, 0), NewMatrix(0, 6))
		y := NewMatrix(4, 5)
		y.Fill(7)
		var bt []float64
		MulABtInto(y, NewMatrix(4, 0), NewMatrix(5, 0), &bt)
		for _, c := range []struct {
			name string
			m    *Matrix
			want float64
		}{{"AddMulAtB", dw, 7}, {"MatMulInto", dx, 0}, {"MulABtInto", y, 0}} {
			for i, v := range c.m.Data {
				if math.Float64bits(v) != math.Float64bits(c.want) {
					t.Fatalf("%s %s: Data[%d] = %v, want %v", path, c.name, i, v, c.want)
				}
			}
		}
	})
}
