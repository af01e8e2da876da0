// Package tensor implements the small dense linear-algebra substrate used by
// the neural-network and estimator code: float64 vectors and row-major
// matrices with the handful of BLAS-like kernels training needs. It is
// deliberately minimal — no views, no sparse formats — because the models in
// this repository are small MLPs over tabular data.
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
		s += x * w[i]
	}
	return s
}

// AddScaled adds alpha*w to v in place (axpy). It panics on length mismatch.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
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
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, mv := range row {
			dst[j] += vi * mv
		}
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
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		a := alpha * ui
		for j, vj := range v {
			row[j] += a * vj
		}
	}
}

// EnsureMatrix reshapes m to rows×cols reusing its backing storage when it
// is large enough, and allocates a fresh matrix otherwise. It is the buffer
// primitive of the minibatch training kernels: activation and gradient
// matrices are carried across epochs and resized to the (occasionally
// shorter) tail batch without reallocating. The returned matrix's contents
// are unspecified; callers overwrite them.
func EnsureMatrix(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	if m == nil || cap(m.Data) < rows*cols {
		return NewMatrix(rows, cols)
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
// The kernel is register-blocked: it computes a 2-row × 4-column block of
// dst at once, so eight independent add chains advance through k together
// instead of one chain waiting on each add's latency. Every chain still
// performs the same rounded operations in the same order, so blocking
// changes no bit. Leftover rows and columns use Dot.
func MulABtInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulABtInto shape mismatch (%dx%d)×(%dx%d)ᵀ→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	K, N := a.Cols, b.Rows
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*K : (i+1)*K]
		a1 := a.Data[(i+1)*K : (i+2)*K][:len(a0)]
		d0 := dst.Data[i*N : (i+1)*N]
		d1 := dst.Data[(i+1)*N : (i+2)*N][:len(d0)]
		j := 0
		for ; j+4 <= N; j += 4 {
			b0 := b.Data[j*K : (j+1)*K][:len(a0)]
			b1 := b.Data[(j+1)*K : (j+2)*K][:len(a0)]
			b2 := b.Data[(j+2)*K : (j+3)*K][:len(a0)]
			b3 := b.Data[(j+3)*K : (j+4)*K][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				s00 += x0 * b0[k]
				s01 += x0 * b1[k]
				s02 += x0 * b2[k]
				s03 += x0 * b3[k]
				s10 += x1 * b0[k]
				s11 += x1 * b1[k]
				s12 += x1 * b2[k]
				s13 += x1 * b3[k]
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
		for j := range drow {
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
// training bit-identical to the per-sample loop it replaced. It walks dst
// row by row: row i gathers column i of a as its coefficients.
func AddMulAtB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMulAtB shape mismatch (%dx%d)ᵀ×(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		addRowCombination(dst.Data[i*dst.Cols:(i+1)*dst.Cols], a.Data, i, a.Cols, b)
	}
}

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
		c, brow := cs[t], b.Data[ks[t]*len(drow):][:len(drow)]
		for j := range drow {
			drow[j] += c * brow[j]
		}
	}
}

// addRows8 is addRowCombination's blocked step: drow[j] += cs[t]·b[ks[t]][j]
// for t = 0..7 in order, with drow[j] held in a local across the eight steps.
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
	c0, c1, c2, c3, c4, c5, c6, c7 := cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6], cs[7]
	for j, v := range drow {
		v += c0 * b0[j]
		v += c1 * b1[j]
		v += c2 * b2[j]
		v += c3 * b3[j]
		v += c4 * b4[j]
		v += c5 * b5[j]
		v += c6 * b6[j]
		v += c7 * b7[j]
		drow[j] = v
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
