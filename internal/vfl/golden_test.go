package vfl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
)

// TestSplitMLPParamsHashGolden trains one paper-scale bundle course (the
// full titanic sample, default widths 64/32, batch 128, 25 epochs, every
// data-party feature) and pins the FNV-64a hash of the bits of every
// trained parameter, captured before the training kernels were
// register-blocked. Accuracy goldens round away a 1-ulp drift in a weight;
// this hash does not.
func TestSplitMLPParamsHashGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale training course in -short mode")
	}
	spec := dataset.Generate(dataset.Titanic, 1, 0)
	p := NewProblem(spec, 1, 0.3)
	feats := make([]int, p.NumDataFeatures())
	for i := range feats {
		feats[i] = i
	}
	dataCols := p.bundleCols(feats)
	task := &TaskParty{
		X: gatherRows(p.Split.X, p.TrainRows, p.Split.TaskCols),
		Y: gatherLabels(p.Split.Y, p.TrainRows),
	}
	data := &DataParty{X: gatherRows(p.Split.X, p.TrainRows, dataCols)}
	m := NewSplitMLP(len(p.Split.TaskCols), len(dataCols), Config{Model: MLP, Seed: 1, Epochs: 25})
	m.Train(task, data)

	h := fnv.New64a()
	var buf [8]byte
	n := 0
	for _, prm := range m.params() {
		for _, w := range prm.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
			n++
		}
	}
	const want = 0xe81e01cb65a85266
	if got := h.Sum64(); got != want {
		t.Errorf("FNV-64a of %d trained parameters = %#x, want %#x", n, got, uint64(want))
	}
}
