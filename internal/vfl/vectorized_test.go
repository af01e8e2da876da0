package vfl

// Tests pinning the two halves of the valuation hot-path refactor: the
// singleflight GainOracle (concurrent misses coalesce, distinct bundles
// train once each, Warm pre-prices across a pool) and the vectorized
// minibatch training path (bit-for-bit identical to the per-sample loop it
// replaced, anchored both against a reference implementation and against
// golden values captured before the rewrite).

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestGainOracleSingleflightConcurrent hammers one oracle from 16
// goroutines over overlapping bundles under -race: every distinct bundle
// must train exactly once (plus one baseline course), and every caller must
// see the same values a serial oracle computes.
func TestGainOracleSingleflightConcurrent(t *testing.T) {
	p := smallProblem(t, 300)
	o := NewGainOracle(p, fastRF())
	bundles := [][]int{{0}, {1}, {0, 1}, {1, 0}, {2}, {0}, {1}}
	const distinct = 4 // {0}, {1}, {0,1}, {2}

	results := make([][]float64, 16)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := make([]float64, len(bundles))
			for j, b := range bundles {
				res[j] = o.Gain(b)
			}
			results[w] = res
		}(w)
	}
	wg.Wait()

	if got := o.Trainings(); got != distinct+1 {
		t.Fatalf("Trainings = %d, want exactly %d (one per distinct bundle + baseline)", got, distinct+1)
	}
	if got := o.CacheSize(); got != distinct {
		t.Fatalf("CacheSize = %d, want %d", got, distinct)
	}

	serial := NewGainOracle(p, fastRF())
	want := make([]float64, len(bundles))
	for j, b := range bundles {
		want[j] = serial.Gain(b)
	}
	for w, res := range results {
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("goroutine %d saw %v, serial oracle computes %v", w, res, want)
		}
	}
}

// TestGainOracleWarm pre-prices a bundle set on the worker pool: every
// distinct bundle trains exactly once, later Gain calls are all cache hits,
// and an already-cancelled context trains nothing.
func TestGainOracleWarm(t *testing.T) {
	p := smallProblem(t, 300)
	o := NewGainOracle(p, fastRF())
	bundles := [][]int{{0}, {1}, {2}, {3}, {1, 0}, {0, 1}}
	const distinct = 5

	if err := o.Warm(context.Background(), bundles); err != nil {
		t.Fatal(err)
	}
	if got := o.Trainings(); got != distinct+1 {
		t.Fatalf("Trainings after Warm = %d, want %d", got, distinct+1)
	}
	n := o.Trainings()
	for _, b := range bundles {
		o.Gain(b)
	}
	if o.Trainings() != n {
		t.Fatal("Warm left cache misses behind")
	}

	cold := NewGainOracle(p, fastRF())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cold.Warm(ctx, bundles); err != context.Canceled {
		t.Fatalf("Warm on cancelled ctx = %v, want context.Canceled", err)
	}
	if cold.Trainings() != 0 {
		t.Fatalf("cancelled Warm trained %d courses", cold.Trainings())
	}
}

// TestGainOracleWarmPropagatesPanic: a training panic inside a Warm worker
// (an out-of-range feature index) must re-raise on the caller's goroutine
// — as a serial build would — not abort the process from a bare goroutine.
func TestGainOracleWarmPropagatesPanic(t *testing.T) {
	p := smallProblem(t, 200)
	o := NewGainOracle(p, fastRF())
	defer func() {
		if recover() == nil {
			t.Fatal("Warm swallowed the training panic")
		}
	}()
	_ = o.Warm(context.Background(), [][]int{{0}, {99}})
}

// referenceTrain is the pre-refactor per-sample training loop, kept as the
// ground truth the vectorized SplitMLP.Train must match bit-for-bit. Only
// its optimizer calls follow the fused step (clip, update and zeroed
// gradients in one call), which internal/nn pins against the separate
// ZeroGrad, ClipGrads and momentum step it replaced.
func referenceTrain(m *SplitMLP, task *TaskParty, data *DataParty) {
	opt := nn.NewSGD(m.params(), m.cfg.LR, 0.9)
	shuffle := rng.New(m.cfg.Seed).Split(4)
	n := task.X.Rows
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		perm := shuffle.Perm(n)
		for start := 0; start < n; start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > n {
				end = n
			}
			for _, i := range perm[start:end] {
				var xd tensor.Vector
				if data != nil {
					xd = data.X.Row(i)
				}
				out := m.forward(task.X.Row(i), xd)
				_, g := nn.BCEWithLogitsGrad(out[0], task.Y[i])
				m.backward(tensor.Vector{g / float64(end-start)})
				if data != nil {
					m.Comm.FloatsExchange += 2 * m.cfg.Hidden1
				}
			}
			opt.Step(5)
			if data != nil {
				m.Comm.Rounds++
			}
		}
	}
}

// splitParties builds a deterministic synthetic two-party problem.
func splitParties(n, td, dd int) (*TaskParty, *DataParty) {
	src := rng.New(99)
	Xt := tensor.NewMatrix(n, td)
	Xd := tensor.NewMatrix(n, dd)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < td; j++ {
			v := src.Gauss(0, 1)
			Xt.Set(i, j, v)
			s += v
		}
		for j := 0; j < dd; j++ {
			v := src.Gauss(0, 1)
			Xd.Set(i, j, v)
			s -= v
		}
		if s > 0 {
			y[i] = 1
		}
	}
	return &TaskParty{X: Xt, Y: y}, &DataParty{X: Xd}
}

// TestSplitMLPBatchEdgeRows runs one minibatch through forwardBatch and
// backwardBatch, and the same samples through the per-sample forward and
// backward, with output gradients taken from the BCE loss as Train takes
// them. Row 3 is −0 in both parties' inputs, so its fused pre-activations
// are exactly 0 + b, on the ReLU's boundary. In the "nan" case row 7 has
// one NaN data-party input: its fused pre-activations, output and loss
// gradient are NaN, the fused ReLU keeps NaN, and the backward mask
// (v <= 0, false on NaN) keeps the NaN gradient, which must then reach
// both bottoms' weight gradients as it does per sample. Outputs and every
// parameter gradient must agree, a NaN matching any NaN.
func TestSplitMLPBatchEdgeRows(t *testing.T) {
	const n, td, dd = 12, 5, 6
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, nanRow := range []bool{false, true} {
		task, data := splitParties(n, td, dd)
		task.X.Row(3).Fill(math.Copysign(0, -1))
		data.X.Row(3).Fill(math.Copysign(0, -1))
		if nanRow {
			data.X.Set(7, 2, math.NaN())
		}
		cfg := Config{Model: MLP, Seed: 31, Hidden1: 24, Hidden2: 12}
		vec, ref := NewSplitMLP(td, dd, cfg), NewSplitMLP(td, dd, cfg)

		out := vec.forwardBatch(task.X, data.X)
		grad := tensor.NewMatrix(n, 1)
		for s := 0; s < n; s++ {
			_, g := nn.BCEWithLogitsGrad(out.At(s, 0), task.Y[s])
			grad.Set(s, 0, g/n)
			z := ref.forward(task.X.Row(s), data.X.Row(s))
			if !same(z[0], out.At(s, 0)) {
				t.Fatalf("nan=%v: output %d = %v, per-sample %v", nanRow, s, out.At(s, 0), z[0])
			}
			ref.backward(tensor.Vector{g / n})
		}
		vec.backwardBatch(grad)

		pv, pr := vec.params(), ref.params()
		for k := range pv {
			for i := range pv[k].G {
				if !same(pv[k].G[i], pr[k].G[i]) {
					t.Fatalf("nan=%v: param %d grad %d = %v, per-sample %v", nanRow, k, i, pv[k].G[i], pr[k].G[i])
				}
			}
		}
		if dataGrad := pv[len(pv)-2].G; nanRow != math.IsNaN(dataGrad[2]) {
			t.Fatalf("nan=%v: data bottom dW[0][2] = %v", nanRow, dataGrad[2])
		}
	}
}

// TestSplitMLPVectorizedMatchesPerSample trains the same split model twice
// — once through the vectorized batch path, once through the preserved
// per-sample reference loop — and demands bit-identical predictions,
// communication accounting included.
func TestSplitMLPVectorizedMatchesPerSample(t *testing.T) {
	const n, td, dd = 140, 5, 3
	task, data := splitParties(n, td, dd)
	cfg := Config{Model: MLP, Seed: 31, Epochs: 6, BatchSize: 32, Hidden1: 24, Hidden2: 12}

	vec := NewSplitMLP(td, dd, cfg)
	vec.Train(task, data)
	ref := NewSplitMLP(td, dd, cfg)
	referenceTrain(ref, task, data)

	if vec.Comm != ref.Comm {
		t.Fatalf("comm accounting diverged: vectorized %+v, per-sample %+v", vec.Comm, ref.Comm)
	}
	for i := 0; i < n; i++ {
		pv := vec.PredictProba(task.X.Row(i), data.X.Row(i))
		pr := ref.PredictProba(task.X.Row(i), data.X.Row(i))
		if math.Float64bits(pv) != math.Float64bits(pr) {
			t.Fatalf("sample %d: vectorized proba %v (%#x) != per-sample %v (%#x)",
				i, pv, math.Float64bits(pv), pr, math.Float64bits(pr))
		}
	}

	// The isolated (no data party) configuration must match too.
	vecIso := NewSplitMLP(td, 0, cfg)
	vecIso.Train(task, nil)
	refIso := NewSplitMLP(td, 0, cfg)
	referenceTrain(refIso, task, nil)
	for i := 0; i < n; i++ {
		pv := vecIso.PredictProba(task.X.Row(i), nil)
		pr := refIso.PredictProba(task.X.Row(i), nil)
		if math.Float64bits(pv) != math.Float64bits(pr) {
			t.Fatalf("isolated sample %d: %#x != %#x", i, math.Float64bits(pv), math.Float64bits(pr))
		}
	}
}

// TestSplitMLPGoldenBits pins the vectorized trainer to probability bits
// captured from the per-sample implementation before the rewrite — a
// tripwire against both paths drifting together.
func TestSplitMLPGoldenBits(t *testing.T) {
	const n, td, dd = 140, 5, 3
	task, data := splitParties(n, td, dd)
	cfg := Config{Model: MLP, Seed: 31, Epochs: 6, BatchSize: 32, Hidden1: 24, Hidden2: 12}

	m := NewSplitMLP(td, dd, cfg)
	m.Train(task, data)
	golden := map[int]uint64{
		0:   0x3fdff7c44a6ee2de,
		5:   0x3fe5759450b7abef,
		77:  0x3fd952ccad31719b,
		139: 0x3fdbcc851ae8a2ba,
	}
	for i, want := range golden {
		got := math.Float64bits(m.PredictProba(task.X.Row(i), data.X.Row(i)))
		if got != want {
			t.Errorf("proba[%d] bits = %#x, want %#x", i, got, want)
		}
	}
	if m.Comm.Rounds != 30 || m.Comm.FloatsExchange != 40320 {
		t.Errorf("comm = %+v, want {Rounds:30 FloatsExchange:40320}", m.Comm)
	}

	iso := NewSplitMLP(td, 0, cfg)
	iso.Train(task, nil)
	if got := math.Float64bits(iso.PredictProba(task.X.Row(3), nil)); got != 0x3fd939e299af0b06 {
		t.Errorf("isolated proba[3] bits = %#x, want 0x3fd939e299af0b06", got)
	}
}

// TestTrainVFLGoldenAccuracies pins full VFL courses (gather, train,
// batched predict) on the Titanic problem to accuracy bits captured from
// the pre-refactor implementation.
func TestTrainVFLGoldenAccuracies(t *testing.T) {
	spec := dataset.Generate(dataset.Titanic, 7, 300)
	p := NewProblem(spec, 7, 0.3)
	cfg := Config{Model: MLP, Seed: 7, Epochs: 8}

	cases := []struct {
		name    string
		feats   []int
		want    uint64
		isolate bool
	}{
		{"isolated", nil, 0x3fe3e93e93e93e94, true},
		{"bundle-0", []int{0}, 0x3fe1c71c71c71c72, false},
		{"bundle-0-2", []int{0, 2}, 0x3fe4fa4fa4fa4fa5, false},
		{"bundle-full", []int{0, 1, 2, 3}, 0x3fe4444444444444, false},
	}
	for _, c := range cases {
		var res Result
		if c.isolate {
			res = p.TrainIsolated(cfg)
		} else {
			res = p.TrainVFL(cfg, c.feats)
		}
		if got := math.Float64bits(res.Accuracy); got != c.want {
			t.Errorf("%s accuracy bits = %#x (%v), want %#x", c.name, got, res.Accuracy, c.want)
		}
		if !c.isolate && (res.Comm.Rounds != 16 || res.Comm.FloatsExchange != 215040) {
			t.Errorf("%s comm = %+v, want {Rounds:16 FloatsExchange:215040}", c.name, res.Comm)
		}
	}
}

// BenchmarkSplitMLPCourse measures one full VFL training course (the unit
// the valuation oracle pays per cache miss); allocations/op track the
// vectorized trainer's buffer reuse.
func BenchmarkSplitMLPCourse(b *testing.B) {
	spec := dataset.Generate(dataset.Titanic, 11, 300)
	p := NewProblem(spec, 11, 0.3)
	cfg := Config{Model: MLP, Seed: 3, Hidden1: 32, Hidden2: 16, Epochs: 6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.TrainVFL(cfg, []int{0, 1})
	}
}

// The per-sample passes no production path runs: the ground truth the
// batched training and prediction must match bit for bit.

// forward runs one sample through the split model. xd must be nil exactly
// when the model was built without a data party.
func (m *SplitMLP) forward(xt, xd tensor.Vector) tensor.Vector {
	z := append(tensor.Vector(nil), m.taskBottom.Forward(xt)...)
	if m.dataBottom != nil {
		// Data party computes its partial activation and sends h1 floats.
		z.AddScaled(1, m.dataBottom.Forward(xd))
	}
	for i, v := range z {
		if v < 0 {
			z[i] = 0
		}
	}
	m.lastFused = z
	return m.top.Forward(z)
}

// backward propagates the output gradient, accumulating gradients in both
// parties' layers; the task party sends h1 gradient floats back.
func (m *SplitMLP) backward(grad tensor.Vector) {
	gz := m.top.Backward(grad)
	for i := range gz {
		if m.lastFused[i] <= 0 {
			gz[i] = 0
		}
	}
	m.taskBottom.Backward(gz)
	if m.dataBottom != nil {
		m.dataBottom.Backward(gz)
	}
}

// PredictProba returns P(y=1) for one sample; xd is nil for isolated models.
func (m *SplitMLP) PredictProba(xt, xd tensor.Vector) float64 {
	z := m.forward(xt, xd)
	return sigmoid(z[0])
}
