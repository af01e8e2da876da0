// Package tree implements the tree-based VFL base model of the paper: CART
// decision trees split on the Gini index, aggregated into a bootstrap random
// forest with per-split feature subsampling.
package tree

import (
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config controls the growth of a single decision tree.
type Config struct {
	MaxDepth    int // maximum tree depth; <= 0 means 12
	MinLeaf     int // minimum samples per leaf; <= 0 means 2
	MaxFeatures int // features considered per split; <= 0 means all
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	return c
}

// node is one tree node; leaves carry the positive-class probability.
type node struct {
	feature     int
	threshold   float64
	left, right int32
	prob        float64
	leaf        bool
}

// Tree is a trained CART binary classifier.
type Tree struct {
	nodes []node
}

// Grow fits a tree on the rows of X indexed by rows (all rows when nil),
// with binary labels y. src drives the per-split feature subsample and may
// be nil when cfg.MaxFeatures selects all features.
func Grow(X *tensor.Matrix, y []int, rows []int, cfg Config, src *rng.Source) *Tree {
	cfg = cfg.withDefaults()
	if rows == nil {
		rows = make([]int, X.Rows)
		for i := range rows {
			rows[i] = i
		}
	}
	t := &Tree{}
	g := grower{X: X, y: y, cfg: cfg, src: src, t: t}
	g.build(rows, 0)
	return t
}

type grower struct {
	X   *tensor.Matrix
	y   []int
	cfg Config
	src *rng.Source
	t   *Tree
}

// build grows the subtree over rows and returns its node index.
func (g *grower) build(rows []int, depth int) int32 {
	pos := 0
	for _, r := range rows {
		pos += g.y[r]
	}
	prob := float64(pos) / float64(len(rows))
	idx := int32(len(g.t.nodes))
	g.t.nodes = append(g.t.nodes, node{leaf: true, prob: prob})
	if depth >= g.cfg.MaxDepth || len(rows) < 2*g.cfg.MinLeaf || pos == 0 || pos == len(rows) {
		return idx
	}
	feat, thresh, gain := g.bestSplit(rows)
	if gain <= 1e-12 {
		return idx
	}
	var left, right []int
	for _, r := range rows {
		if g.X.At(r, feat) <= thresh {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < g.cfg.MinLeaf || len(right) < g.cfg.MinLeaf {
		return idx
	}
	l := g.build(left, depth+1)
	r := g.build(right, depth+1)
	n := &g.t.nodes[idx]
	n.leaf = false
	n.feature = feat
	n.threshold = thresh
	n.left, n.right = l, r
	return idx
}

// gini returns the Gini impurity of a (pos, total) count.
func gini(pos, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	return 2 * p * (1 - p)
}

// bestSplit scans candidate features for the split with the highest Gini
// gain. It returns gain <= 0 when no useful split exists.
func (g *grower) bestSplit(rows []int) (feature int, threshold, gain float64) {
	total := len(rows)
	totalPos := 0
	for _, r := range rows {
		totalPos += g.y[r]
	}
	parent := gini(totalPos, total)

	features := g.candidateFeatures()
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0

	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, total)
	for _, feat := range features {
		for i, r := range rows {
			pairs[i] = pair{g.X.At(r, feat), g.y[r]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		leftPos, leftN := 0, 0
		for i := 0; i+1 < total; i++ {
			leftPos += pairs[i].y
			leftN++
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			if leftN < g.cfg.MinLeaf || total-leftN < g.cfg.MinLeaf {
				continue
			}
			rightPos := totalPos - leftPos
			w := float64(leftN) / float64(total)
			child := w*gini(leftPos, leftN) + (1-w)*gini(rightPos, total-leftN)
			if gn := parent - child; gn > bestGain {
				bestGain = gn
				bestFeat = feat
				bestThresh = (pairs[i].v + pairs[i+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0
	}
	return bestFeat, bestThresh, bestGain
}

func (g *grower) candidateFeatures() []int {
	d := g.X.Cols
	k := g.cfg.MaxFeatures
	if k <= 0 || k >= d || g.src == nil {
		all := make([]int, d)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return g.src.Sample(d, k)
}

// PredictProba returns the leaf positive-class probability for x.
func (t *Tree) PredictProba(x tensor.Vector) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.prob
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// ForestConfig controls random-forest training.
type ForestConfig struct {
	NumTrees    int     // <= 0 means 20
	MaxDepth    int     // per-tree; <= 0 means 10
	MinLeaf     int     // <= 0 means 2
	MaxFeatures int     // per-split subsample; <= 0 means round(sqrt(d))
	Subsample   float64 // bootstrap fraction; <= 0 means 1.0
	Seed        uint64
}

func (c ForestConfig) withDefaults(d int) ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 20
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = int(math.Round(math.Sqrt(float64(d))))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	if c.Subsample <= 0 {
		c.Subsample = 1
	}
	return c
}

// Forest is a trained random forest binary classifier.
type Forest struct {
	Trees []*Tree
}

// TrainForest fits a bootstrap random forest with Gini splitting, the
// paper's tree-based base model.
func TrainForest(X *tensor.Matrix, y []int, cfg ForestConfig) *Forest {
	cfg = cfg.withDefaults(X.Cols)
	master := rng.New(cfg.Seed)
	f := &Forest{}
	n := X.Rows
	sample := int(cfg.Subsample * float64(n))
	if sample < 1 {
		sample = 1
	}
	for t := 0; t < cfg.NumTrees; t++ {
		src := master.Split(uint64(t))
		rows := make([]int, sample)
		for i := range rows {
			rows[i] = src.IntN(n) // bootstrap with replacement
		}
		f.Trees = append(f.Trees, Grow(X, y, rows, Config{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: cfg.MaxFeatures,
		}, src))
	}
	return f
}

// PredictProba averages the tree probabilities for x.
func (f *Forest) PredictProba(x tensor.Vector) float64 {
	s := 0.0
	for _, t := range f.Trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(f.Trees))
}

// Predict returns the class decision at threshold 0.5.
func (f *Forest) Predict(x tensor.Vector) int {
	if f.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll returns class decisions for every row of X.
func (f *Forest) PredictAll(X *tensor.Matrix) []int {
	out := make([]int, X.Rows)
	for i := range out {
		out[i] = f.Predict(X.Row(i))
	}
	return out
}
