package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 2}
	v.AddScaled(2, Vector{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Fatalf("AddScaled = %v", v)
	}
}

func TestVectorScaleNormSumMean(t *testing.T) {
	v := Vector{3, 4}
	if v.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", v.Norm2())
	}
	v.Scale(2)
	if v.Sum() != 14 {
		t.Fatalf("Sum = %v", v.Sum())
	}
	if v.Mean() != 7 {
		t.Fatalf("Mean = %v", v.Mean())
	}
}

func TestVectorEmptyMeanArgMax(t *testing.T) {
	var v Vector
	if v.Mean() != 0 {
		t.Fatal("empty Mean != 0")
	}
	if v.ArgMax() != -1 {
		t.Fatal("empty ArgMax != -1")
	}
}

func TestVectorArgMax(t *testing.T) {
	if got := (Vector{1, 9, 3, 9}).ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d, want first max index 1", got)
	}
}

func TestVectorCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestVectorMapFill(t *testing.T) {
	v := Vector{1, 4, 9}
	v.Map(math.Sqrt)
	if v[2] != 3 {
		t.Fatalf("Map = %v", v)
	}
	v.Fill(-1)
	if v[0] != -1 || v[1] != -1 {
		t.Fatalf("Fill = %v", v)
	}
}

func TestMatrixAtSetRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	m.Set(0, 2, 5)
	col := m.Col(2)
	if col[0] != 5 || col[1] != 7 {
		t.Fatalf("Col = %v", col)
	}
	row := m.Row(1)
	row[0] = 3 // Row shares storage
	if m.At(1, 0) != 3 {
		t.Fatal("Row does not share storage")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows = %+v", m)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("FromRows(nil) = %dx%d", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMul = %v", c.Data)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T = %+v", at)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec(Vector{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulVecT(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVecT(Vector{1, 1})
	want := a.T().MulVec(Vector{1, 1})
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT = %v, want %v", got, want)
		}
	}
}

func TestAddOuterMatchesNaive(t *testing.T) {
	m := NewMatrix(3, 2)
	u := Vector{1, 0, 2}
	v := Vector{3, 4}
	m.AddOuter(0.5, u, v)
	if m.At(0, 0) != 1.5 || m.At(0, 1) != 2 || m.At(1, 0) != 0 || m.At(2, 1) != 4 {
		t.Fatalf("AddOuter = %v", m.Data)
	}
}

func TestMatrixAddScaledScale(t *testing.T) {
	a := FromRows([][]float64{{1, 1}})
	b := FromRows([][]float64{{2, 3}})
	a.AddScaled(2, b)
	if a.At(0, 0) != 5 || a.At(0, 1) != 7 {
		t.Fatalf("AddScaled = %v", a.Data)
	}
	a.Scale(0.5)
	if a.At(0, 0) != 2.5 {
		t.Fatalf("Scale = %v", a.Data)
	}
}

func TestCloneAndZero(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Zero()
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
	if c.At(0, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestRandInitStd(t *testing.T) {
	m := NewMatrix(200, 200)
	m.RandInit(rng.New(5), 0.1)
	sum, sumSq := 0.0, 0.0
	for _, v := range m.Data {
		sum += v
		sumSq += v * v
	}
	n := float64(len(m.Data))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.005 || math.Abs(std-0.1) > 0.005 {
		t.Fatalf("RandInit mean=%v std=%v", mean, std)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); got != 5 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed uint64, rRaw, kRaw, cRaw uint8) bool {
		src := rng.New(seed)
		r, k, c := int(rRaw%5)+1, int(kRaw%5)+1, int(cRaw%5)+1
		a, b := NewMatrix(r, k), NewMatrix(k, c)
		a.RandInit(src, 1)
		b.RandInit(src, 1)
		left := MatMul(a, b).T()
		right := MatMul(b.T(), a.T())
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec agrees with MatMul against a column matrix.
func TestMulVecConsistencyProperty(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		src := rng.New(seed)
		r, c := int(rRaw%6)+1, int(cRaw%6)+1
		a := NewMatrix(r, c)
		a.RandInit(src, 1)
		v := make(Vector, c)
		for i := range v {
			v[i] = src.Gauss(0, 1)
		}
		col := NewMatrix(c, 1)
		copy(col.Data, v)
		want := MatMul(a, col)
		got := a.MulVec(v)
		for i := range got {
			if math.Abs(got[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	src := rng.New(1)
	a := NewMatrix(64, 64)
	c := NewMatrix(64, 64)
	a.RandInit(src, 1)
	c.RandInit(src, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

// Conveniences no served path calls, kept for the tests above.

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Map applies f element-wise in place.
func (v Vector) Map(f func(float64) float64) {
	for i, x := range v {
		v[i] = f(x)
	}
}

// FromRows builds a matrix from row slices, which must all share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged rows (%d vs %d)", len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
