package tree

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// axisData builds a dataset separable on feature 0 at threshold 0.
func axisData(src *rng.Source, n int) (*tensor.Matrix, []int) {
	X := tensor.NewMatrix(n, 3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		X.Set(i, 0, src.Gauss(0, 1))
		X.Set(i, 1, src.Gauss(0, 1)) // noise
		X.Set(i, 2, src.Gauss(0, 1)) // noise
		if X.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	return X, y
}

func TestGiniValues(t *testing.T) {
	if gini(0, 10) != 0 || gini(10, 10) != 0 {
		t.Fatal("pure nodes should have zero impurity")
	}
	if got := gini(5, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("gini(5,10) = %v, want 0.5", got)
	}
	if gini(0, 0) != 0 {
		t.Fatal("empty gini should be 0")
	}
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	X, y := axisData(rng.New(1), 400)
	tr := Grow(X, y, nil, Config{MaxDepth: 3}, nil)
	preds := make([]int, X.Rows)
	for i := range preds {
		if tr.PredictProba(X.Row(i)) >= 0.5 {
			preds[i] = 1
		}
	}
	if acc := metrics.Accuracy(preds, y); acc < 0.98 {
		t.Fatalf("tree accuracy = %v", acc)
	}
	// The root split should be on feature 0 near 0.
	root := tr.nodes[0]
	if root.leaf || root.feature != 0 || math.Abs(root.threshold) > 0.2 {
		t.Fatalf("root split = %+v", root)
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := &tensor.Matrix{Rows: 3, Cols: 1, Data: []float64{1, 2, 3}}
	y := []int{1, 1, 1}
	tr := Grow(X, y, nil, Config{}, nil)
	if tr.NumNodes() != 1 || !tr.nodes[0].leaf || tr.nodes[0].prob != 1 {
		t.Fatalf("pure data should yield one leaf: %+v", tr.nodes)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	src := rng.New(3)
	X := tensor.NewMatrix(500, 2)
	y := make([]int, 500)
	for i := 0; i < 500; i++ {
		X.Set(i, 0, src.Gauss(0, 1))
		X.Set(i, 1, src.Gauss(0, 1))
		// Nonlinear label forces deep trees if allowed.
		if X.At(i, 0)*X.At(i, 1) > 0 {
			y[i] = 1
		}
	}
	tr := Grow(X, y, nil, Config{MaxDepth: 2}, nil)
	if d := tr.Depth(); d > 2 {
		t.Fatalf("depth = %d, want <= 2", d)
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	X, y := axisData(rng.New(5), 60)
	tr := Grow(X, y, nil, Config{MaxDepth: 20, MinLeaf: 25}, nil)
	// With MinLeaf=25 on 60 samples only one split is possible.
	if d := tr.Depth(); d > 1 {
		t.Fatalf("depth = %d with MinLeaf 25", d)
	}
}

func TestTreeConstantFeaturesYieldLeaf(t *testing.T) {
	X := &tensor.Matrix{Rows: 4, Cols: 2, Data: []float64{1, 1, 1, 1, 1, 1, 1, 1}}
	y := []int{0, 1, 0, 1}
	tr := Grow(X, y, nil, Config{}, nil)
	if !tr.nodes[0].leaf {
		t.Fatal("constant features should not split")
	}
	if got := tr.PredictProba(tensor.Vector{1, 1}); got != 0.5 {
		t.Fatalf("prob = %v, want 0.5", got)
	}
}

func TestTreeRowSubset(t *testing.T) {
	X, y := axisData(rng.New(7), 200)
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	tr := Grow(X, y, rows, Config{MaxDepth: 2}, nil)
	if tr.NumNodes() == 0 {
		t.Fatal("no nodes grown")
	}
}

func TestForestBeatsChance(t *testing.T) {
	src := rng.New(11)
	n := 600
	X := tensor.NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			X.Set(i, j, src.Gauss(0, 1))
		}
		if X.At(i, 0)+0.5*X.At(i, 1) > 0 {
			y[i] = 1
		}
	}
	f := TrainForest(X, y, ForestConfig{NumTrees: 15, MaxDepth: 6, Seed: 1})
	if acc := metrics.Accuracy(f.PredictAll(X), y); acc < 0.9 {
		t.Fatalf("forest accuracy = %v", acc)
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := axisData(rng.New(13), 200)
	cfg := ForestConfig{NumTrees: 5, MaxDepth: 4, Seed: 9}
	a := TrainForest(X, y, cfg)
	b := TrainForest(X, y, cfg)
	for i := 0; i < X.Rows; i++ {
		if a.PredictProba(X.Row(i)) != b.PredictProba(X.Row(i)) {
			t.Fatal("forest training not deterministic")
		}
	}
}

func TestForestSeedMatters(t *testing.T) {
	X, y := axisData(rng.New(17), 300)
	a := TrainForest(X, y, ForestConfig{NumTrees: 3, MaxDepth: 4, Seed: 1})
	b := TrainForest(X, y, ForestConfig{NumTrees: 3, MaxDepth: 4, Seed: 2})
	same := true
	for i := 0; i < X.Rows && same; i++ {
		if a.PredictProba(X.Row(i)) != b.PredictProba(X.Row(i)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestForestProbaInRange(t *testing.T) {
	X, y := axisData(rng.New(19), 200)
	f := TrainForest(X, y, ForestConfig{NumTrees: 7, Seed: 3})
	for i := 0; i < X.Rows; i++ {
		p := f.PredictProba(X.Row(i))
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestForestDefaults(t *testing.T) {
	cfg := ForestConfig{}.withDefaults(16)
	if cfg.NumTrees != 20 || cfg.MaxDepth != 10 || cfg.MaxFeatures != 4 || cfg.Subsample != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestForestSubsample(t *testing.T) {
	X, y := axisData(rng.New(23), 300)
	f := TrainForest(X, y, ForestConfig{NumTrees: 5, Subsample: 0.3, Seed: 5})
	if acc := metrics.Accuracy(f.PredictAll(X), y); acc < 0.85 {
		t.Fatalf("subsampled forest accuracy = %v", acc)
	}
}

func TestAddingInformativeFeatureImprovesForest(t *testing.T) {
	// This is the property the whole market rests on: training with an extra
	// informative feature raises accuracy, so ΔG > 0.
	src := rng.New(29)
	n := 800
	Xfull := tensor.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a := src.Gauss(0, 1)
		b := src.Gauss(0, 1)
		Xfull.Set(i, 0, a)
		Xfull.Set(i, 1, b)
		if a+2*b+src.Gauss(0, 0.3) > 0 {
			y[i] = 1
		}
	}
	X1 := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		X1.Set(i, 0, Xfull.At(i, 0))
	}
	base := TrainForest(X1, y, ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 1})
	full := TrainForest(Xfull, y, ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 1})
	accBase := metrics.Accuracy(base.PredictAll(X1), y)
	accFull := metrics.Accuracy(full.PredictAll(Xfull), y)
	if accFull <= accBase {
		t.Fatalf("informative feature did not help: %v vs %v", accBase, accFull)
	}
}

func BenchmarkGrowTree(b *testing.B) {
	X, y := axisData(rng.New(1), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Grow(X, y, nil, Config{MaxDepth: 8}, nil)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := axisData(rng.New(1), 500)
	f := TrainForest(X, y, ForestConfig{NumTrees: 20, Seed: 1})
	x := X.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.PredictProba(x)
	}
}

// Depth returns the maximum depth of the tree (0 for a single leaf).
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.nodes[i]
		if n.leaf {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0)
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }
