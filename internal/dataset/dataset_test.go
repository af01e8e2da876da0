package dataset

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func toyDataset() *Dataset {
	return &Dataset{
		Name: "toy",
		Cols: []Column{
			{Name: "x", Kind: Numeric},
			{Name: "color", Kind: Categorical, Categories: []string{"r", "g", "b"}},
			{Name: "y2", Kind: Numeric},
		},
		Raw: &tensor.Matrix{Rows: 4, Cols: 3, Data: []float64{
			1, 0, 10,
			2, 1, 20,
			3, 2, 30,
			4, 0, 40,
		}},
		Y: []int{0, 1, 0, 1},
	}
}

func TestValidateOK(t *testing.T) {
	if err := toyDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadCategory(t *testing.T) {
	d := toyDataset()
	d.Raw.Set(0, 1, 7)
	if err := d.Validate(); err == nil {
		t.Fatal("expected category error")
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	d := toyDataset()
	d.Y[2] = 3
	if err := d.Validate(); err == nil {
		t.Fatal("expected label error")
	}
}

func TestValidateCatchesShapeMismatch(t *testing.T) {
	d := toyDataset()
	d.Y = d.Y[:2]
	if err := d.Validate(); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestEncodeWidthAndGroups(t *testing.T) {
	e := toyDataset().Encode()
	if e.D() != 5 { // 1 + 3 + 1
		t.Fatalf("encoded width = %d", e.D())
	}
	if len(e.Groups) != 3 || len(e.Groups[1]) != 3 {
		t.Fatalf("groups = %v", e.Groups)
	}
	wantNames := []string{"x", "color=r", "color=g", "color=b", "y2"}
	for i, n := range wantNames {
		if e.FeatureNames[i] != n {
			t.Fatalf("FeatureNames[%d] = %q, want %q", i, e.FeatureNames[i], n)
		}
	}
}

func TestEncodeOneHotRows(t *testing.T) {
	e := toyDataset().Encode()
	// Row 1 has color index 1 → columns 1..3 should be (0,1,0).
	if e.X.At(1, 1) != 0 || e.X.At(1, 2) != 1 || e.X.At(1, 3) != 0 {
		t.Fatalf("one-hot row = %v", e.X.Row(1))
	}
	// Exactly one indicator per row.
	for i := 0; i < e.N(); i++ {
		sum := e.X.At(i, 1) + e.X.At(i, 2) + e.X.At(i, 3)
		if sum != 1 {
			t.Fatalf("row %d indicator sum = %v", i, sum)
		}
	}
}

func TestEncodeStandardizesNumeric(t *testing.T) {
	e := toyDataset().Encode()
	col := make(tensor.Vector, e.X.Rows)
	for i := range col {
		col[i] = e.X.At(i, 0)
	}
	if mean := col.Sum() / float64(len(col)); math.Abs(mean) > 1e-12 {
		t.Fatalf("standardized mean = %v", mean)
	}
	sumSq := 0.0
	for _, v := range col {
		sumSq += v * v
	}
	if math.Abs(sumSq/float64(len(col))-1) > 1e-9 {
		t.Fatalf("standardized variance = %v", sumSq/float64(len(col)))
	}
}

func TestEncodeConstantNumericBecomesZero(t *testing.T) {
	d := &Dataset{
		Name: "const",
		Cols: []Column{{Name: "c", Kind: Numeric}},
		Raw:  &tensor.Matrix{Rows: 3, Cols: 1, Data: []float64{5, 5, 5}},
		Y:    []int{0, 1, 0},
	}
	e := d.Encode()
	for i := 0; i < 3; i++ {
		if e.X.At(i, 0) != 0 {
			t.Fatalf("constant column encoded to %v", e.X.At(i, 0))
		}
	}
}

func TestSubsetCopies(t *testing.T) {
	d := toyDataset()
	s := d.Subset([]int{2, 0})
	if s.N() != 2 || s.Raw.At(0, 0) != 3 || s.Y[1] != 0 {
		t.Fatalf("Subset wrong: %+v", s.Raw.Data)
	}
	s.Raw.Set(0, 0, -1)
	if d.Raw.At(2, 0) != 3 {
		t.Fatal("Subset aliases parent")
	}
}

func TestTrainTestSplitSizesAndDisjoint(t *testing.T) {
	sp := GenerateTitanic(1, 200)
	train, test := sp.Dataset.TrainTestSplit(rng.New(2), 0.25)
	if test.N() != 50 || train.N() != 150 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
}

func TestVerticalSplitKeepsGroupsTogether(t *testing.T) {
	e := toyDataset().Encode()
	s := e.VerticalSplit([]int{0}) // task owns only "x"
	if len(s.TaskCols) != 1 || s.TaskCols[0] != 0 {
		t.Fatalf("TaskCols = %v", s.TaskCols)
	}
	if len(s.DataCols) != 4 {
		t.Fatalf("DataCols = %v", s.DataCols)
	}
	// The three color indicators must be one data-party group.
	if len(s.DataGroups) != 2 || len(s.DataGroups[0]) != 3 {
		t.Fatalf("DataGroups = %v", s.DataGroups)
	}
}

func TestVerticalSplitPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	toyDataset().Encode().VerticalSplit([]int{99})
}

func TestColumnsView(t *testing.T) {
	e := toyDataset().Encode()
	v := e.Columns([]int{4, 0})
	if v.D() != 2 || v.X.At(0, 0) != e.X.At(0, 4) || v.FeatureNames[1] != "x" {
		t.Fatalf("Columns view wrong")
	}
}

// Table 2 schema checks: samples, original features, per-party encoded
// features must match the paper exactly.
func TestTable2Schemas(t *testing.T) {
	cases := []struct {
		name               Name
		samples, originals int
		taskEnc, dataEnc   int
	}{
		{Titanic, 891, 11, 10, 19},
		{Credit, 30000, 25, 9, 21},
		{Adult, 48842, 14, 52, 36},
	}
	for _, c := range cases {
		n := 300 // small n for test speed; schema is independent of n
		sp := Generate(c.name, 1, n)
		if err := sp.Dataset.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if DefaultSamples(c.name) != c.samples {
			t.Errorf("%s: default samples = %d, want %d", c.name, DefaultSamples(c.name), c.samples)
		}
		originals := sp.Dataset.D()
		if c.name == Credit {
			originals++ // the ID column is dropped at preprocessing, as in the paper
		}
		if originals != c.originals {
			t.Errorf("%s: %d original features, want %d", c.name, originals, c.originals)
		}
		_, s := sp.Split()
		if s.TaskD() != c.taskEnc {
			t.Errorf("%s: task party encoded = %d, want %d", c.name, s.TaskD(), c.taskEnc)
		}
		if s.DataD() != c.dataEnc {
			t.Errorf("%s: data party encoded = %d, want %d", c.name, s.DataD(), c.dataEnc)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Titanic, 42, 100)
	b := Generate(Titanic, 42, 100)
	if !slices.Equal(a.Dataset.Raw.Data, b.Dataset.Raw.Data) {
		t.Fatal("generator is not deterministic")
	}
	for i := range a.Dataset.Y {
		if a.Dataset.Y[i] != b.Dataset.Y[i] {
			t.Fatal("labels not deterministic")
		}
	}
	c := Generate(Titanic, 43, 100)
	if slices.Equal(a.Dataset.Raw.Data, c.Dataset.Raw.Data) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratedLabelBalance(t *testing.T) {
	for _, name := range AllNames() {
		sp := Generate(name, 3, 2000)
		pos := 0
		for _, y := range sp.Dataset.Y {
			pos += y
		}
		rate := float64(pos) / 2000
		if rate < 0.05 || rate > 0.95 {
			t.Errorf("%s: degenerate label rate %v", name, rate)
		}
	}
}

func TestTableStats(t *testing.T) {
	sp := Generate(Credit, 5, 500)
	_, s := sp.Split()
	st := TableStats(sp.Dataset, s)
	if st.Samples != 500 || st.TaskPartyEncoded != 9 || st.DataPartyEncoded != 21 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PositiveLabelRate <= 0 || st.PositiveLabelRate >= 1 {
		t.Fatalf("positive rate = %v", st.PositiveLabelRate)
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind.String wrong")
	}
}

func TestColumnWidths(t *testing.T) {
	num := Column{Name: "n", Kind: Numeric}
	cat := Column{Name: "c", Kind: Categorical, Categories: []string{"a", "b"}}
	if num.EncodedWidth() != 1 || cat.EncodedWidth() != 2 {
		t.Fatal("EncodedWidth wrong")
	}
	if num.Cardinality() != 0 || cat.Cardinality() != 2 {
		t.Fatal("Cardinality wrong")
	}
}

func BenchmarkEncodeAdult(b *testing.B) {
	sp := Generate(Adult, 1, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.Dataset.Encode()
	}
}

func BenchmarkGenerateCredit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Generate(Credit, uint64(i), 1000)
	}
}

// Dataset helpers no production path calls. Validate checks the generators'
// invariants above; the tests above exercise the rest.

// Cardinality returns the number of categories for a categorical column and
// 0 for a numeric one.
func (c Column) Cardinality() int {
	if c.Kind != Categorical {
		return 0
	}
	return len(c.Categories)
}

// Validate checks structural invariants: matching shapes, category indices in
// range, and binary labels.
func (d *Dataset) Validate() error {
	if d.Raw.Cols != len(d.Cols) {
		return fmt.Errorf("dataset %q: %d raw columns vs %d column specs", d.Name, d.Raw.Cols, len(d.Cols))
	}
	if len(d.Y) != d.Raw.Rows {
		return fmt.Errorf("dataset %q: %d labels vs %d rows", d.Name, len(d.Y), d.Raw.Rows)
	}
	for j, c := range d.Cols {
		if c.Kind == Categorical && len(c.Categories) == 0 {
			return fmt.Errorf("dataset %q: column %q has no categories", d.Name, c.Name)
		}
		if c.Kind != Categorical {
			continue
		}
		for i := 0; i < d.Raw.Rows; i++ {
			v := d.Raw.At(i, j)
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= len(c.Categories) {
				return fmt.Errorf("dataset %q: row %d column %q holds invalid category %v", d.Name, i, c.Name, v)
			}
		}
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return fmt.Errorf("dataset %q: label %d is %d, want 0/1", d.Name, i, y)
		}
	}
	return nil
}

// Subset returns a new Dataset holding only the given rows (copied).
func (d *Dataset) Subset(rows []int) *Dataset {
	out := &Dataset{
		Name: d.Name,
		Cols: append([]Column(nil), d.Cols...),
		Raw:  tensor.NewMatrix(len(rows), d.Raw.Cols),
		Y:    make([]int, len(rows)),
	}
	for i, r := range rows {
		copy(out.Raw.Data[i*out.Raw.Cols:(i+1)*out.Raw.Cols], d.Raw.Data[r*d.Raw.Cols:(r+1)*d.Raw.Cols])
		out.Y[i] = d.Y[r]
	}
	return out
}

// TrainTestSplit shuffles the rows with src and splits them so that the test
// set holds round(testFrac*n) samples. It panics if testFrac is outside
// [0, 1].
func (d *Dataset) TrainTestSplit(src *rng.Source, testFrac float64) (train, test *Dataset) {
	if testFrac < 0 || testFrac > 1 {
		panic("dataset: testFrac outside [0,1]")
	}
	perm := src.Perm(d.N())
	nTest := int(float64(d.N())*testFrac + 0.5)
	return d.Subset(perm[nTest:]), d.Subset(perm[:nTest])
}

// D returns the number of encoded features.
func (e *Encoded) D() int { return e.X.Cols }

// N returns the number of samples.
func (e *Encoded) N() int { return e.X.Rows }

// Columns returns a new Encoded view restricted to the given encoded columns
// (copied). Groups are not carried over; feature names are.
func (e *Encoded) Columns(cols []int) *Encoded {
	out := &Encoded{
		Name: e.Name,
		X:    tensor.NewMatrix(e.N(), len(cols)),
		Y:    append([]int(nil), e.Y...),
	}
	for _, c := range cols {
		out.FeatureNames = append(out.FeatureNames, e.FeatureNames[c])
	}
	for i := 0; i < e.N(); i++ {
		for k, c := range cols {
			out.X.Set(i, k, e.X.At(i, c))
		}
	}
	return out
}
