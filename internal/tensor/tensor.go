// Package tensor implements the small dense linear-algebra substrate used by
// the neural-network and estimator code: float64 vectors and row-major
// matrices with the handful of BLAS-like kernels training needs, and the
// fused Adam update. It is deliberately minimal — no views, no sparse
// formats — because the models in this repository are small MLPs over
// tabular data.
//
// Every kernel fixes the order of its rounded operations, and the batched
// kernels are bit-identical to the per-sample operations they replace. On
// amd64 CPUs with AVX2 (detected once, at start-up, from CPUID) the hot
// loops run in assembly four float64 lanes wide under an order-preserving
// contract: each lane holds one output or one weight, starts from the same
// +0 and takes exactly the scalar code's operations in the scalar code's
// order, every product rounded by its own multiply before its add. Nothing
// is reassociated across lanes and nothing is fused into an FMA, so the
// SIMD path is bit-identical to the scalar Go loop, which also finishes
// every kernel's tail (the last len%4 lanes) and is the whole kernel on
// other CPUs. The scalar loops wrap each product in an explicit float64
// conversion, which the Go spec defines to round it, so no architecture's
// compiler fuses it into a multiply-add either.
//
// The assembly covers the forward product (MulABtInto), the weight and
// input gradients (AddMulAtB, with a transposed pass for narrow inputs,
// and MatMulInto), axpy, the Adam update, and a layer's elementwise
// passes: the bias-and-activation epilogue (AddBias, AddBiasReLU), the
// split model's fused ReLU (ReLUSum) and the ReLU gradient masks (ReLUMask,
// ReLUGrad). Where the scalar code branches per element — a ReLU test, a
// skipped zero coefficient — the lanes compare and select instead, with
// compare predicates whose answers on NaN and −0 are Go's: v < 0 and
// v <= 0 and y > 0 are false on NaN, c != 0 is true on NaN and false on
// −0. A skipped coefficient keeps the lane's value by select rather than
// adding a zero product, which would turn a −0 into +0 or meet an
// infinite operand.
package tensor

import (
	"fmt"

	"repro/internal/rng"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Fill sets every element to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Dot returns the inner product of v and w. It panics on length mismatch.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// AddScaled adds alpha*w to v in place (axpy). It panics on length mismatch.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	axpy(alpha, w, v)
}

// Scale multiplies every element by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape. It panics on negative
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vector sharing the matrix's storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Fill sets every element to c.
func (m *Matrix) Fill(c float64) {
	for i := range m.Data {
		m.Data[i] = c
	}
}

// Zero sets every element to zero.
func (m *Matrix) Zero() { m.Fill(0) }

// RandInit fills m with Gaussian values of the given std (He/Xavier-style
// initialisation chooses std from fan-in at the call site).
func (m *Matrix) RandInit(src *rng.Source, std float64) {
	for i := range m.Data {
		m.Data[i] = src.Gauss(0, std)
	}
}

// MulVecTInto computes mᵀ×v into a preallocated dst, overwriting it: dst
// is zeroed, then each row of m scaled by its coefficient of v is added in
// ascending-row order, zero coefficients skipped. This is the
// buffer-reusing backprop kernel of the per-sample path. It panics on
// shape mismatch.
func (m *Matrix) MulVecTInto(dst, v Vector) {
	if m.Rows != len(v) || m.Cols != len(dst) {
		panic(fmt.Sprintf("tensor: MulVecTInto shape mismatch (%dx%d)ᵀ×%d→%d", m.Rows, m.Cols, len(v), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		axpy(vi, m.Data[i*m.Cols:(i+1)*m.Cols], dst)
	}
}

// AddOuter adds alpha * u vᵀ to m in place (rank-1 update). It panics on
// shape mismatch.
func (m *Matrix) AddOuter(alpha float64, u, v Vector) {
	if m.Rows != len(u) || m.Cols != len(v) {
		panic("tensor: AddOuter shape mismatch")
	}
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		axpy(alpha*ui, v, m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// EnsureMatrix reshapes m to rows×cols in place, reusing its backing
// storage when it is large enough and growing it otherwise, and returns
// m; a nil m gets a fresh matrix. It is the buffer primitive of the
// minibatch training kernels: activation and gradient matrices are carried
// across epochs and resized to the (occasionally shorter) tail batch
// without reallocating. The returned matrix's contents are unspecified;
// callers overwrite them.
func EnsureMatrix(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	if m == nil {
		return NewMatrix(rows, cols)
	}
	if cap(m.Data) < rows*cols {
		m.Data = make([]float64, rows*cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	return m
}

// MulABtInto computes dst = a×bᵀ into a preallocated dst (a: M×K, b: N×K,
// dst: M×N), overwriting dst. Each dst element is the dot product of one a
// row with one b row — both contiguous — started at 0 and accumulated in
// ascending-k order with no zero skipping, exactly as Vector.Dot does, so a
// row of the result is bit-identical to the per-sample Dot of every b row
// with that a row: this is the batched forward kernel.
//
// With AVX2, the first N&^3 columns run four to a register: b's first
// N&^3 rows are transposed into bt (grown as needed and kept by the
// caller, so a warm call allocates nothing), and each lane carries one
// output's chain. Otherwise, and for the last N%4 columns, the kernel is
// register-blocked Go: a 2-row × 4-column block of dst at once, so eight
// independent add chains advance through k together instead of one chain
// waiting on each add's latency. Every chain performs the same rounded
// operations in the same order either way, so neither changes a bit.
// Leftover rows and columns use Dot.
func MulABtInto(dst, a, b *Matrix, bt *[]float64) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulABtInto shape mismatch (%dx%d)×(%dx%d)ᵀ→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	K, N := a.Cols, b.Rows
	j0 := 0
	if haveAVX2 && N >= 4 && a.Rows > 0 {
		j0 = N &^ 3
		if cap(*bt) < K*j0 {
			*bt = make([]float64, K*j0)
		}
		t := (*bt)[:K*j0]
		for j := 0; j < j0; j++ {
			for k, x := range b.Data[j*K : (j+1)*K] {
				t[k*j0+j] = x
			}
		}
		mulABtAVX2(dst.Data[:a.Rows*N], a.Data[:a.Rows*K], t, a.Rows, K, N)
	}
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*K : (i+1)*K]
		a1 := a.Data[(i+1)*K : (i+2)*K][:len(a0)]
		d0 := dst.Data[i*N : (i+1)*N]
		d1 := dst.Data[(i+1)*N : (i+2)*N][:len(d0)]
		j := j0
		for ; j+4 <= N; j += 4 {
			b0 := b.Data[j*K : (j+1)*K][:len(a0)]
			b1 := b.Data[(j+1)*K : (j+2)*K][:len(a0)]
			b2 := b.Data[(j+2)*K : (j+3)*K][:len(a0)]
			b3 := b.Data[(j+3)*K : (j+4)*K][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				s00 += float64(x0 * b0[k])
				s01 += float64(x0 * b1[k])
				s02 += float64(x0 * b2[k])
				s03 += float64(x0 * b3[k])
				s10 += float64(x1 * b0[k])
				s11 += float64(x1 * b1[k])
				s12 += float64(x1 * b2[k])
				s13 += float64(x1 * b3[k])
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < N; j++ {
			brow := Vector(b.Data[j*K : (j+1)*K])
			d0[j] = Vector(a0).Dot(brow)
			d1[j] = Vector(a1).Dot(brow)
		}
	}
	if i < a.Rows {
		arow := Vector(a.Data[i*K : (i+1)*K])
		drow := dst.Data[i*N : (i+1)*N]
		for j := j0; j < N; j++ {
			drow[j] = arow.Dot(Vector(b.Data[j*K : (j+1)*K]))
		}
	}
}

// MatMulInto computes dst = a×b into a preallocated dst, overwriting it.
// Row i of dst is the combination of b's rows weighted by a's row i, added
// to a zeroed row in ascending-k order with zero coefficients skipped, so
// it is bit-identical to the per-sample b.MulVecTInto(dst.Row(i),
// a.Row(i)): this is the batched input-gradient kernel.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch (%dx%d)×(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	clear(dst.Data)
	for i := 0; i < a.Rows; i++ {
		addRowCombination(dst.Data[i*b.Cols:(i+1)*b.Cols], a.Data, i*a.Cols, 1, b)
	}
}

// AddMulAtB accumulates dst += aᵀ×b (a: S×M, b: S×N, dst: M×N). Each dst
// element receives its products in ascending sample order, skipping zero
// coefficients of a — exactly the sum of the per-sample rank-1 updates
// dst.AddOuter(1, a.Row(s), b.Row(s)) for s = 0..S-1, in that order. This
// is the batched weight-gradient kernel; the fixed order keeps vectorized
// training bit-identical to the per-sample loop it replaced.
//
// With AVX2 and a narrow b (N < narrowCols), the first M&^3 rows of dst
// are transposed into t (grown as needed and kept by the caller, so a
// warm call allocates nothing) and accumulated in one pass over the
// batch, four outputs to a register: each lane adds its product or, for
// a ±0 coefficient, keeps its value by select. Otherwise, and for the
// last M%4 rows, the kernel walks dst row by row: row i gathers column i
// of a as its coefficients. Either way every element takes the same
// rounded steps.
func AddMulAtB(dst, a, b *Matrix, t *[]float64) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMulAtB shape mismatch (%dx%d)ᵀ×(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	M, N := a.Cols, b.Cols
	i0 := 0
	if haveAVX2 && M >= 4 && N < narrowCols && a.Rows > 0 {
		i0 = M &^ 3
		if cap(*t) < N*i0 {
			*t = make([]float64, N*i0)
		}
		tt := (*t)[:N*i0]
		for i := 0; i < i0; i++ {
			for j, x := range dst.Data[i*N : (i+1)*N] {
				tt[j*i0+i] = x
			}
		}
		addMulAtBAVX2(tt, a.Data[:a.Rows*M], b.Data[:a.Rows*N], a.Rows, M, N)
		for i := 0; i < i0; i++ {
			drow := dst.Data[i*N : (i+1)*N]
			for j := range drow {
				drow[j] = tt[j*i0+i]
			}
		}
	}
	for i := i0; i < dst.Rows; i++ {
		addRowCombination(dst.Data[i*N:(i+1)*N], a.Data, i, M, b)
	}
}

// narrowCols bounds the b width AddMulAtB accumulates in one transposed
// pass. The pass computes every product, a zero coefficient's too, where
// the row-by-row walk skips them but gathers each row's coefficients
// first; with half the coefficients zero (a ReLU-masked gradient), 64
// outputs and 128 samples, the pass takes ~0.5× the walk's time at 10
// columns and breaks even at 19.
const narrowCols = 20

// addRowCombination adds c_k·b.Row(k) to drow for k = 0..b.Rows-1 in
// ascending order, where c_k = coef[off+k*stride], never applying a zero (or
// negative-zero) coefficient. It collects the nonzero coefficients eight
// at a time and applies each group in one pass over drow: every element is
// loaded once, takes its eight `v += c*b` steps in k order in a register,
// and is stored once. The rounded operations on each element are exactly
// those of applying the coefficients one row at a time; leftover
// coefficients are applied that way.
func addRowCombination(drow, coef []float64, off, stride int, b *Matrix) {
	var ks [8]int
	var cs [8]float64
	n := 0
	for k := 0; k < b.Rows; k++ {
		// Store unconditionally and advance only past a nonzero coefficient:
		// a data-dependent branch here mispredicts on ReLU-masked gradients.
		c := coef[off+k*stride]
		ks[n&7], cs[n&7] = k, c
		if c != 0 {
			n++
		}
		if n == len(ks) {
			addRows8(drow, &cs, &ks, b)
			n = 0
		}
	}
	for t := 0; t < n; t++ {
		axpy(cs[t], b.Data[ks[t]*len(drow):][:len(drow)], drow)
	}
}

// addRows8 is addRowCombination's blocked step: drow[j] += cs[t]·b[ks[t]][j]
// for t = 0..7 in order, with drow[j] held in a register across the eight
// steps (four elements to a register with AVX2).
func addRows8(drow []float64, cs *[8]float64, ks *[8]int, b *Matrix) {
	N := len(drow)
	b0 := b.Data[ks[0]*N:][:N]
	b1 := b.Data[ks[1]*N:][:N]
	b2 := b.Data[ks[2]*N:][:N]
	b3 := b.Data[ks[3]*N:][:N]
	b4 := b.Data[ks[4]*N:][:N]
	b5 := b.Data[ks[5]*N:][:N]
	b6 := b.Data[ks[6]*N:][:N]
	b7 := b.Data[ks[7]*N:][:N]
	j := 0
	if haveAVX2 && N >= 4 {
		j = N &^ 3
		addRows8AVX2(drow[:j], cs, b.Data, ks, N)
	}
	c0, c1, c2, c3, c4, c5, c6, c7 := cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6], cs[7]
	for ; j < N; j++ {
		v := drow[j]
		v += float64(c0 * b0[j])
		v += float64(c1 * b1[j])
		v += float64(c2 * b2[j])
		v += float64(c3 * b3[j])
		v += float64(c4 * b4[j])
		v += float64(c5 * b5[j])
		v += float64(c6 * b6[j])
		v += float64(c7 * b7[j])
		drow[j] = v
	}
}

// axpy adds alpha·x[j] to y[j] for every j of y (x at least as long), each
// element as y[j] + (alpha·x[j]) with the product rounded first: the inner
// loop of the rank-1 update, the transposed product and Vector.AddScaled.
func axpy(alpha float64, x, y []float64) {
	x = x[:len(y)]
	j := 0
	if haveAVX2 && len(y) >= 4 {
		j = len(y) &^ 3
		axpyAVX2(alpha, x[:j], y[:j])
	}
	for ; j < len(y); j++ {
		y[j] += float64(alpha * x[j])
	}
}

// GatherRowsInto copies the given rows of src into a preallocated dst
// (reshaped to len(rows)×src.Cols through EnsureMatrix) and returns it. It
// is the minibatch assembly primitive: training gathers a shuffled batch
// with one bulk copy per row instead of per-sample row views.
func GatherRowsInto(dst, src *Matrix, rows []int) *Matrix {
	dst = EnsureMatrix(dst, len(rows), src.Cols)
	for i, r := range rows {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], src.Data[r*src.Cols:(r+1)*src.Cols])
	}
	return dst
}
