// Package vfl simulates the two-party vertical federated learning substrate
// the market trades over: a task party holding labels and its feature
// columns, and a data party holding only feature columns over the same
// aligned samples. It implements both base models of the paper — a split
// 3-layer MLP (embedding dims 64 and 32) trained with real split-learning
// message passing, and a jointly trained random forest — plus isolated
// baseline training and the performance-gain evaluation
// ΔG = (M - M0)/M0 of Eq. 1.
//
// Per §3.6 of the paper the market is FL-protocol-agnostic: only the scalar
// performance gain of a VFL course crosses into the bargaining layer. The
// random-forest trainer therefore materializes the joint feature matrix as a
// simulation convenience (standing in for a SecureBoost-style protocol),
// while the split MLP exchanges only activations and gradients and counts
// the messages it sends.
package vfl

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bundlekey"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tree"
)

// BaseModel selects the model the two parties train in a VFL course.
type BaseModel int

// The two base models evaluated in the paper.
const (
	RandomForest BaseModel = iota
	MLP
)

// String implements fmt.Stringer.
func (m BaseModel) String() string {
	switch m {
	case RandomForest:
		return "random-forest"
	case MLP:
		return "3-layer-mlp"
	default:
		return fmt.Sprintf("BaseModel(%d)", int(m))
	}
}

// Problem is an encoded, vertically split dataset with a train/test split —
// everything a VFL course needs.
type Problem struct {
	Split     *dataset.Split
	TrainRows []int
	TestRows  []int
}

// NewProblem prepares a problem from a generated dataset spec: encode,
// vertical split, and a deterministic train/test row split.
func NewProblem(spec *dataset.Spec, seed uint64, testFrac float64) *Problem {
	_, split := spec.Split()
	n := len(split.Y)
	perm := rng.New(seed).Split(0x9999).Perm(n)
	nTest := int(float64(n)*testFrac + 0.5)
	return &Problem{
		Split:     split,
		TestRows:  perm[:nTest],
		TrainRows: perm[nTest:],
	}
}

// NumDataFeatures returns the number of data-party original features
// (bundle-able units).
func (p *Problem) NumDataFeatures() int { return len(p.Split.DataGroups) }

// bundleCols maps data-party original-feature indices to encoded column
// indices in the full matrix, keeping indicator groups intact.
func (p *Problem) bundleCols(features []int) []int {
	var cols []int
	for _, f := range features {
		if f < 0 || f >= len(p.Split.DataGroups) {
			panic(fmt.Sprintf("vfl: data feature %d out of range [0,%d)", f, len(p.Split.DataGroups)))
		}
		for _, local := range p.Split.DataGroups[f] {
			cols = append(cols, p.Split.DataCols[local])
		}
	}
	return cols
}

// gatherRows copies the given columns of the given rows into a new matrix.
func gatherRows(X *tensor.Matrix, rows, cols []int) *tensor.Matrix {
	out := tensor.NewMatrix(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			out.Set(i, j, X.At(r, c))
		}
	}
	return out
}

func gatherLabels(y []int, rows []int) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = y[r]
	}
	return out
}

// Config controls training for both base models.
type Config struct {
	Model BaseModel
	Seed  uint64

	// Random-forest parameters.
	Forest tree.ForestConfig

	// Split-MLP parameters (defaults follow the paper: hidden 64/32,
	// lr 1e-2).
	Hidden1, Hidden2 int
	LR               float64
	Epochs           int
	BatchSize        int

	// Repeats averages every gain evaluation over this many independently
	// seeded trainings (GainOracle only). Small relative gains — Credit's
	// ΔG ≈ 0.5e-2 — need it to rise above single-run evaluation noise.
	// <= 0 means 1.
	Repeats int
}

func (c Config) withDefaults() Config {
	if c.Hidden1 == 0 {
		c.Hidden1 = 64
	}
	if c.Hidden2 == 0 {
		c.Hidden2 = 32
	}
	if c.LR == 0 {
		c.LR = 1e-2
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	return c
}

// Result is the outcome of one training course.
type Result struct {
	Accuracy float64
	Comm     CommStats // only populated by the split MLP
}

// CommStats counts the split-learning traffic of a VFL course.
type CommStats struct {
	Rounds         int // optimizer steps requiring an exchange
	FloatsExchange int // total float64 values exchanged between parties
}

// TrainIsolated trains the task party alone on its own columns and returns
// test accuracy — the baseline M0 of Eq. 1.
func (p *Problem) TrainIsolated(cfg Config) Result {
	return p.train(cfg, p.Split.TaskCols, nil)
}

// TrainVFL runs a VFL course over the task party's columns joined with the
// data-party bundle given as original-feature indices, returning test
// accuracy M.
func (p *Problem) TrainVFL(cfg Config, bundleFeatures []int) Result {
	return p.train(cfg, p.Split.TaskCols, p.bundleCols(bundleFeatures))
}

func (p *Problem) train(cfg Config, taskCols, dataCols []int) Result {
	cfg = cfg.withDefaults()
	switch cfg.Model {
	case RandomForest:
		return p.trainForest(cfg, taskCols, dataCols)
	case MLP:
		return p.trainSplitMLP(cfg, taskCols, dataCols)
	default:
		panic("vfl: unknown base model")
	}
}

func (p *Problem) trainForest(cfg Config, taskCols, dataCols []int) Result {
	cols := append(append([]int(nil), taskCols...), dataCols...)
	Xtr := gatherRows(p.Split.X, p.TrainRows, cols)
	ytr := gatherLabels(p.Split.Y, p.TrainRows)
	fcfg := cfg.Forest
	fcfg.Seed = cfg.Seed
	f := tree.TrainForest(Xtr, ytr, fcfg)
	Xte := gatherRows(p.Split.X, p.TestRows, cols)
	yte := gatherLabels(p.Split.Y, p.TestRows)
	return Result{Accuracy: metrics.Accuracy(f.PredictAll(Xte), yte)}
}

func (p *Problem) trainSplitMLP(cfg Config, taskCols, dataCols []int) Result {
	task := &TaskParty{
		X: gatherRows(p.Split.X, p.TrainRows, taskCols),
		Y: gatherLabels(p.Split.Y, p.TrainRows),
	}
	var data *DataParty
	if len(dataCols) > 0 {
		data = &DataParty{X: gatherRows(p.Split.X, p.TrainRows, dataCols)}
	}
	m := NewSplitMLP(len(taskCols), lenOrZero(dataCols), cfg)
	m.Train(task, data)

	XteTask := gatherRows(p.Split.X, p.TestRows, taskCols)
	var XteData *tensor.Matrix
	if len(dataCols) > 0 {
		XteData = gatherRows(p.Split.X, p.TestRows, dataCols)
	}
	yte := gatherLabels(p.Split.Y, p.TestRows)
	preds := make([]int, len(p.TestRows))
	for i, pr := range m.PredictProbaBatch(XteTask, XteData) {
		if pr >= 0.5 {
			preds[i] = 1
		}
	}
	return Result{Accuracy: metrics.Accuracy(preds, yte), Comm: m.Comm}
}

func lenOrZero(s []int) int { return len(s) }

// Gain runs the full Eq. 1 evaluation for a bundle: isolated baseline,
// VFL course, relative improvement.
func (p *Problem) Gain(cfg Config, bundleFeatures []int) float64 {
	m0 := p.TrainIsolated(cfg).Accuracy
	m := p.TrainVFL(cfg, bundleFeatures).Accuracy
	return metrics.PerformanceGain(m, m0)
}

// BundleKey canonicalizes a bundle (set of data-party original-feature
// indices) into a map key: sorted, comma-joined. It is the oracle-side name
// of the repo-wide canonical encoding in internal/bundlekey.
func BundleKey(features []int) string { return bundlekey.Key(features) }

// flight is one in-progress valuation: waiters block on done and then read
// value. retry is set when the flight died without producing a value (the
// training panicked), telling waiters to start over rather than consume a
// zero.
type flight struct {
	done  chan struct{}
	value float64
	retry bool
}

// GainOracle memoizes per-bundle performance gains. It plays the role of the
// paper's trustworthy third party: both market participants can query the
// gain of a bundle without touching the other side's raw features, and each
// distinct bundle is trained at most once.
//
// An oracle is safe for concurrent use and never serializes distinct
// bundles: the mutex guards only the memo map and a per-key in-flight
// registry, while VFL courses train outside it. Concurrent misses on the
// same bundle coalesce into a single flight — the first caller trains, the
// rest wait on its result — so each distinct bundle trains exactly once no
// matter how many goroutines race on it, and misses on different bundles
// train truly concurrently.
type GainOracle struct {
	Problem *Problem
	Config  Config

	mu         sync.Mutex
	baseline   float64
	hasBase    bool
	baseFlight *flight
	cache      map[string]float64
	inflight   map[string]*flight
	// trainings counts actual (non-cached) VFL courses, for the ablation
	// bench quantifying what caching saves. hits counts memo hits and
	// coalesced the callers that joined an already-running flight instead
	// of training — together the oracle's flight metrics, surfaced through
	// Stats (and from there Server.MarketMetrics).
	trainings int
	hits      int
	coalesced int
	// restored counts memo entries adopted from a persisted snapshot
	// (ImportMemo) — valuations this process answers warm without ever
	// having trained them.
	restored int
}

// OracleStats is a point-in-time snapshot of a GainOracle's load counters.
type OracleStats struct {
	// Trainings counts actual (non-cached) VFL training courses run.
	Trainings int
	// CachedGains counts the bundle valuations memoized so far.
	CachedGains int
	// Hits counts bundle valuations served straight from the memo map.
	Hits int
	// Coalesced counts callers that piggybacked on an in-flight training
	// of the same bundle (or the baseline) instead of starting their own —
	// the work the singleflight de-duplicated under concurrency.
	Coalesced int
	// Restored counts memo entries adopted from a persisted snapshot at
	// boot — valuations answered warm without this process training them.
	Restored int
}

// NewGainOracle builds an oracle over a problem and training config.
func NewGainOracle(p *Problem, cfg Config) *GainOracle {
	return &GainOracle{
		Problem:  p,
		Config:   cfg,
		cache:    make(map[string]float64),
		inflight: make(map[string]*flight),
	}
}

// repeats returns the configured evaluation-averaging count (at least 1).
func (o *GainOracle) repeats() int {
	if o.Config.Repeats <= 0 {
		return 1
	}
	return o.Config.Repeats
}

// repeatCfg is the config of the i-th independently seeded evaluation run.
func (o *GainOracle) repeatCfg(i int) Config {
	cfg := o.Config
	cfg.Seed = o.Config.Seed + uint64(i)*101
	return cfg
}

// Baseline returns the isolated-training accuracy M0 (averaged over the
// configured repeats), training it on first use. Concurrent first uses
// coalesce into one training flight.
func (o *GainOracle) Baseline() float64 {
	for {
		o.mu.Lock()
		if o.hasBase {
			b := o.baseline
			o.mu.Unlock()
			return b
		}
		if f := o.baseFlight; f != nil {
			o.coalesced++
			o.mu.Unlock()
			<-f.done
			if f.retry {
				continue
			}
			return f.value
		}
		f := &flight{done: make(chan struct{})}
		o.baseFlight = f
		o.mu.Unlock()

		ok := false
		defer func() {
			if !ok {
				o.abandonBaseline(f)
			}
		}()
		sum := 0.0
		n := o.repeats()
		for i := 0; i < n; i++ {
			sum += o.Problem.TrainIsolated(o.repeatCfg(i)).Accuracy
		}
		b := sum / float64(n)
		ok = true

		f.value = b
		o.mu.Lock()
		o.baseline, o.hasBase = b, true
		o.baseFlight = nil
		o.trainings += n
		o.mu.Unlock()
		close(f.done)
		return b
	}
}

// abandonBaseline releases a baseline flight whose training panicked so
// waiters re-drive the evaluation instead of consuming a zero.
func (o *GainOracle) abandonBaseline(f *flight) {
	o.mu.Lock()
	if o.baseFlight == f {
		o.baseFlight = nil
	}
	o.mu.Unlock()
	f.retry = true
	close(f.done)
}

// Gain returns ΔG for the bundle (averaged over the configured repeats),
// training the VFL courses only on a cache miss. Training runs outside the
// oracle lock: concurrent misses on the same bundle wait on one flight,
// misses on distinct bundles train concurrently.
func (o *GainOracle) Gain(features []int) float64 {
	key := BundleKey(features)
	for {
		o.mu.Lock()
		if g, ok := o.cache[key]; ok {
			o.hits++
			o.mu.Unlock()
			return g
		}
		if f, ok := o.inflight[key]; ok {
			o.coalesced++
			o.mu.Unlock()
			<-f.done
			if f.retry {
				continue
			}
			return f.value
		}
		f := &flight{done: make(chan struct{})}
		o.inflight[key] = f
		o.mu.Unlock()
		return o.fly(key, features, f)
	}
}

// fly trains the bundle's courses outside the lock and publishes the result
// to the cache and to every waiter of the flight. A panic in training (e.g.
// an out-of-range feature index) abandons the flight so waiters retry — and
// then propagate the same panic themselves.
func (o *GainOracle) fly(key string, features []int, f *flight) float64 {
	ok := false
	defer func() {
		if !ok {
			o.mu.Lock()
			if o.inflight[key] == f {
				delete(o.inflight, key)
			}
			o.mu.Unlock()
			f.retry = true
			close(f.done)
		}
	}()
	sum := 0.0
	n := o.repeats()
	for i := 0; i < n; i++ {
		sum += o.Problem.TrainVFL(o.repeatCfg(i), features).Accuracy
	}
	g := metrics.PerformanceGain(sum/float64(n), o.Baseline())
	ok = true

	f.value = g
	o.mu.Lock()
	o.cache[key] = g
	delete(o.inflight, key)
	o.trainings += n
	o.mu.Unlock()
	close(f.done)
	return g
}

// Warm pre-prices a set of bundles on core.Batch's worker pool
// (GOMAXPROCS workers, fewer for fewer bundles: training is CPU-bound, so
// more workers than cores only multiplies peak memory), so a catalog build
// saturates the hardware instead of running its VFL courses one after
// another. Already cached bundles cost a map hit; duplicate bundles in the
// input coalesce through the singleflight. Warm returns the first context
// error once the bundles already being priced finish; bundles not yet
// started are skipped. A panic in a training course (e.g. an out-of-range
// feature index) is re-raised on the caller's goroutine.
func (o *GainOracle) Warm(ctx context.Context, bundles [][]int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil || len(bundles) == 0 {
		return err
	}
	// Price the baseline first: every gain evaluation needs M0, so warming
	// it up-front keeps the workers from all queueing on its flight.
	o.Baseline()
	_, err := core.Batch(ctx, len(bundles), 0, func(_ context.Context, i int) (struct{}, error) {
		o.Gain(bundles[i])
		return struct{}{}, nil
	})
	return err
}

// Trainings returns the number of actual (non-cached) training courses run
// so far.
func (o *GainOracle) Trainings() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trainings
}

// CacheSize returns the number of memoized bundles.
func (o *GainOracle) CacheSize() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.cache)
}

// Stats snapshots the oracle's flight metrics: trainings run, gains
// memoized, memo hits, and callers coalesced into in-flight trainings.
func (o *GainOracle) Stats() OracleStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return OracleStats{
		Trainings:   o.trainings,
		CachedGains: len(o.cache),
		Hits:        o.hits,
		Coalesced:   o.coalesced,
		Restored:    o.restored,
	}
}

// MemoSnapshot is the oracle's persistable valuation memo: the baseline and
// every cached bundle gain, keyed by bundlekey. It is what the durable
// store spills on flush and pre-loads at boot.
type MemoSnapshot struct {
	Baseline    float64
	HasBaseline bool
	Gains       map[string]float64
}

// ExportMemo snapshots the memo for persistence. The returned map is a
// copy; in-flight trainings are not waited for (they will be in the next
// flush).
func (o *GainOracle) ExportMemo() MemoSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	gains := make(map[string]float64, len(o.cache))
	for k, v := range o.cache {
		gains[k] = v
	}
	return MemoSnapshot{Baseline: o.baseline, HasBaseline: o.hasBase, Gains: gains}
}

// ImportMemo adopts a persisted memo, returning how many entries were
// restored. Entries this oracle already holds (trained or imported earlier)
// are kept, not overwritten — a live valuation always beats a stale disk
// one. Safe to call at any time, though it is meant for boot, before the
// first valuation.
func (o *GainOracle) ImportMemo(m MemoSnapshot) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	if m.HasBaseline && !o.hasBase {
		o.baseline, o.hasBase = m.Baseline, true
		n++
	}
	for k, v := range m.Gains {
		if _, ok := o.cache[k]; !ok {
			o.cache[k] = v
			n++
		}
	}
	o.restored += n
	return n
}
