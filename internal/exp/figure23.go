package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vfl"
)

// StrategyLabel names the three compared configurations of §4.2.
type StrategyLabel string

// The strategies of Figures 2 and 3.
const (
	LabelStrategic     StrategyLabel = "Strategic (Ours)"
	LabelIncreasePrice StrategyLabel = "Increase Price"
	LabelRandomBundle  StrategyLabel = "Random Bundle"
)

func (l StrategyLabel) strategies() (core.TaskStrategy, core.DataStrategy) {
	switch l {
	case LabelIncreasePrice:
		return core.TaskIncreasePrice, core.DataStrategic
	case LabelRandomBundle:
		return core.TaskStrategic, core.DataRandomBundle
	default:
		return core.TaskStrategic, core.DataStrategic
	}
}

// AllStrategies lists the figure strategies in legend order.
func AllStrategies() []StrategyLabel {
	return []StrategyLabel{LabelRandomBundle, LabelIncreasePrice, LabelStrategic}
}

// Options control an experiment run.
type Options struct {
	Runs       int     // repeated bargaining games; the paper uses 100
	Seed       uint64  // master seed
	Scale      float64 // profile scale in (0, 1]; 1 is the paper setting
	Horizon    int     // rounds plotted in the series; <= 0 means 120
	GainSource GainSource
	Datasets   []dataset.Name // nil means all three
	// Workers bounds the batch worker pool of the repeated runs; <= 0
	// means GOMAXPROCS. The worker count never changes results, only
	// wall-clock time.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 100
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Horizon <= 0 {
		o.Horizon = 120
	}
	if o.Datasets == nil {
		o.Datasets = dataset.AllNames()
	}
	return o
}

// StrategyFigure holds one strategy's panel data for one dataset.
type StrategyFigure struct {
	Label       StrategyLabel
	NetProfit   []RoundAgg // panel (a)/(f)/(k)
	Payment     []RoundAgg // panel (b)/(g)/(l)
	Gain        []RoundAgg // panel (c)/(h)/(m), "Realized ΔG"
	FinalRates  []float64  // final p of each run (panel d/i/n sample)
	FinalBases  []float64  // final P0 of each run (panel e/j/o sample)
	RateDensity KDECurve
	BaseDensity KDECurve
	SuccessRate float64
	MeanRounds  float64 // mean rounds to termination
}

// DatasetFigure holds all strategies' panels for one dataset plus the
// reserved price of the target bundle (the vertical reference lines).
type DatasetFigure struct {
	Dataset      dataset.Name
	Model        vfl.BaseModel
	TargetGain   float64
	ReservedRate float64 // p_l of the target bundle
	ReservedBase float64 // P_l of the target bundle
	Strategies   []StrategyFigure
}

// Figure23 is the full result of regenerating Figure 2 (random forest) or
// Figure 3 (MLP).
type Figure23 struct {
	Model    vfl.BaseModel
	Datasets []DatasetFigure
}

// RunFigure23 regenerates Figure 2 (model = vfl.RandomForest) or Figure 3
// (model = vfl.MLP): for every dataset, 3 strategies × Runs bargaining
// games from one shared initial state, aggregated into per-round mean/CI
// series and final-quote densities. Each strategy's runs execute across
// the Options.Workers pool; ctx cancels between rounds.
func RunFigure23(ctx context.Context, model vfl.BaseModel, opts Options) (*Figure23, error) {
	opts = opts.withDefaults()
	out := &Figure23{Model: model}
	for _, name := range opts.Datasets {
		p := DefaultProfile(name, model).Scaled(opts.Scale)
		p.GainSource = opts.GainSource
		env, err := BuildEnv(p, opts.Seed)
		if err != nil {
			return nil, err
		}
		df := DatasetFigure{
			Dataset:    name,
			Model:      model,
			TargetGain: env.Session.TargetGain,
		}
		target := env.Catalog.TargetBundle(env.Session.TargetGain)
		df.ReservedRate = env.Catalog.Bundles[target].Reserved.Rate
		df.ReservedBase = env.Catalog.Bundles[target].Reserved.Base

		for _, label := range AllStrategies() {
			sf, err := runStrategy(ctx, env, label, opts)
			if err != nil {
				return nil, fmt.Errorf("exp: %s/%s: %w", name, label, err)
			}
			df.Strategies = append(df.Strategies, sf)
		}
		out.Datasets = append(out.Datasets, df)
	}
	return out, nil
}

func runStrategy(ctx context.Context, env *Env, label StrategyLabel, opts Options) (StrategyFigure, error) {
	taskS, dataS := label.strategies()
	sf := StrategyFigure{Label: label}
	cfgs := env.SessionConfigs(opts.Runs, opts.Seed, func(_ int, cfg *core.SessionConfig) {
		cfg.TaskStrategy = taskS
		cfg.DataStrategy = dataS
	})
	results, err := env.RunBatch(ctx, cfgs, opts.Workers)
	if err != nil {
		return sf, err
	}
	var traces [][]core.RoundRecord
	successes := 0
	totalRounds := 0
	for _, res := range results {
		traces = append(traces, res.Rounds)
		totalRounds += len(res.Rounds)
		if res.Outcome == core.Success {
			successes++
			sf.FinalRates = append(sf.FinalRates, res.Final.Price.Rate)
			sf.FinalBases = append(sf.FinalBases, res.Final.Price.Base)
		}
	}
	sf.SuccessRate = float64(successes) / float64(opts.Runs)
	sf.MeanRounds = float64(totalRounds) / float64(opts.Runs)
	sf.NetProfit = aggregateRuns(traces, opts.Horizon, func(r core.RoundRecord) float64 { return r.NetProfit })
	sf.Payment = aggregateRuns(traces, opts.Horizon, func(r core.RoundRecord) float64 { return r.Payment })
	sf.Gain = aggregateRuns(traces, opts.Horizon, func(r core.RoundRecord) float64 { return r.Gain })
	sf.RateDensity = kdeCurve(sf.FinalRates, 64)
	sf.BaseDensity = kdeCurve(sf.FinalBases, 64)
	return sf, nil
}
