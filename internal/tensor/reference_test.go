package tensor

// Per-sample and allocating reference operations. No production code calls
// them; the tests use them as the ground truth the batched kernels must
// match bit for bit (MulVec for MulABtInto, MulVecT for MatMulInto), and
// as the textbook forms the algebraic property tests check.

import (
	"fmt"
	"math"
)

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element, or -1 for an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MatMul returns a×b. It panics if the inner dimensions differ.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)×(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns m×v as a new vector. It panics on shape mismatch.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("tensor: MulVec shape mismatch (%dx%d)×%d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return out
}

// MulVecT returns mᵀ×v as a new vector (useful for backprop without forming
// the transpose). It panics on shape mismatch.
func (m *Matrix) MulVecT(v Vector) Vector {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("tensor: MulVecT shape mismatch (%dx%d)ᵀ×%d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vector, m.Cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, mv := range row {
			out[j] += vi * mv
		}
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// AddScaled adds alpha*other to m in place. It panics on shape mismatch.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}
