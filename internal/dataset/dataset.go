// Package dataset implements the tabular-data substrate of the VFL market:
// column-typed datasets, indicator (one-hot) encoding of categorical
// features, vertical feature splits between the task party and the data
// party, and deterministic synthetic generators for the three evaluation
// datasets of the paper (Titanic, Credit, Adult).
//
// As in the paper's preprocessing, indicator features derived from one
// original categorical feature always stay together on one party.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Kind is the type of a column.
type Kind int

const (
	// Numeric columns hold real values and are standardized at encoding.
	Numeric Kind = iota
	// Categorical columns hold category indices and are one-hot encoded.
	Categorical
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column describes one original feature.
type Column struct {
	Name       string
	Kind       Kind
	Categories []string // category names; len is the cardinality (Categorical only)
}

// EncodedWidth returns the number of encoded columns this feature expands to:
// 1 for numeric, the cardinality for categorical.
func (c Column) EncodedWidth() int {
	if c.Kind == Numeric {
		return 1
	}
	return len(c.Categories)
}

// Dataset is a raw (pre-encoding) tabular dataset with binary labels.
// Categorical cells store the category index as a float64.
type Dataset struct {
	Name string
	Cols []Column
	Raw  *tensor.Matrix // n × len(Cols)
	Y    []int          // binary labels, len n
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.Raw.Rows }

// D returns the number of original features.
func (d *Dataset) D() int { return len(d.Cols) }

// Encoded is a dataset after indicator encoding and numeric standardization.
type Encoded struct {
	Name         string
	FeatureNames []string // len == X.Cols
	Groups       [][]int  // Groups[j] lists encoded columns of original feature j
	X            *tensor.Matrix
	Y            []int
}

// Encode one-hot encodes categorical columns and standardizes numeric
// columns to zero mean and unit variance (constant columns become all-zero).
func (d *Dataset) Encode() *Encoded {
	width := 0
	for _, c := range d.Cols {
		width += c.EncodedWidth()
	}
	e := &Encoded{
		Name:   d.Name,
		X:      tensor.NewMatrix(d.N(), width),
		Y:      append([]int(nil), d.Y...),
		Groups: make([][]int, len(d.Cols)),
	}
	col := 0
	for j, c := range d.Cols {
		w := c.EncodedWidth()
		idxs := make([]int, w)
		for k := range idxs {
			idxs[k] = col + k
		}
		e.Groups[j] = idxs
		switch c.Kind {
		case Numeric:
			e.FeatureNames = append(e.FeatureNames, c.Name)
			mean, std := columnMoments(d.Raw, j)
			for i := 0; i < d.N(); i++ {
				v := d.Raw.At(i, j) - mean
				if std > 0 {
					v /= std
				} else {
					v = 0
				}
				e.X.Set(i, col, v)
			}
		case Categorical:
			for _, cat := range c.Categories {
				e.FeatureNames = append(e.FeatureNames, c.Name+"="+cat)
			}
			for i := 0; i < d.N(); i++ {
				e.X.Set(i, col+int(d.Raw.At(i, j)), 1)
			}
		}
		col += w
	}
	return e
}

func columnMoments(m *tensor.Matrix, j int) (mean, std float64) {
	n := float64(m.Rows)
	if n == 0 {
		return 0, 0
	}
	sum, sumSq := 0.0, 0.0
	for i := 0; i < m.Rows; i++ {
		v := m.At(i, j)
		sum += v
		sumSq += v * v
	}
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// Split is a vertical partition of an encoded dataset between the task party
// and the data party, mirroring the paper's setup: the task party owns the
// labels and its encoded feature columns; the data party owns only its
// encoded feature columns.
type Split struct {
	Name     string
	TaskCols []int // encoded column indices of the task party
	DataCols []int // encoded column indices of the data party
	// DataGroups lists, per data-party original feature, the positions of
	// its encoded columns inside DataCols (0-based into DataCols).
	DataGroups [][]int
	X          *tensor.Matrix // full encoded matrix (owned jointly for simulation)
	Y          []int
}

// VerticalSplit partitions e by original feature: originals whose index is in
// taskOriginals go to the task party, the rest to the data party. Indicator
// columns of one original feature stay together, as in the paper.
func (e *Encoded) VerticalSplit(taskOriginals []int) *Split {
	isTask := make(map[int]bool, len(taskOriginals))
	for _, j := range taskOriginals {
		if j < 0 || j >= len(e.Groups) {
			panic(fmt.Sprintf("dataset: original feature index %d out of range", j))
		}
		isTask[j] = true
	}
	s := &Split{Name: e.Name, X: e.X, Y: e.Y}
	for j, group := range e.Groups {
		if isTask[j] {
			s.TaskCols = append(s.TaskCols, group...)
		} else {
			var local []int
			for _, c := range group {
				local = append(local, len(s.DataCols))
				s.DataCols = append(s.DataCols, c)
			}
			s.DataGroups = append(s.DataGroups, local)
		}
	}
	return s
}

// TaskD returns the task party's encoded feature count.
func (s *Split) TaskD() int { return len(s.TaskCols) }

// DataD returns the data party's encoded feature count.
func (s *Split) DataD() int { return len(s.DataCols) }

// Stats summarizes a dataset as in Table 2 of the paper.
type Stats struct {
	Name              string
	Samples           int
	OriginalFeatures  int
	TaskPartyEncoded  int
	DataPartyEncoded  int
	PositiveLabelRate float64
}

// TableStats computes the Table 2 row for a dataset with a given split.
func TableStats(d *Dataset, s *Split) Stats {
	pos := 0
	for _, y := range d.Y {
		pos += y
	}
	return Stats{
		Name:              d.Name,
		Samples:           d.N(),
		OriginalFeatures:  d.D(),
		TaskPartyEncoded:  s.TaskD(),
		DataPartyEncoded:  s.DataD(),
		PositiveLabelRate: float64(pos) / float64(max(1, d.N())),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
