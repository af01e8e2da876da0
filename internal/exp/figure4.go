package exp

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/vfl"
)

// Figure4Panel is the estimator learning curve of one (dataset, model): the
// per-round MSE of the ΔG estimation networks on both parties, averaged
// over runs.
type Figure4Panel struct {
	Dataset dataset.Name
	Model   vfl.BaseModel
	// TaskMSE[t] / DataMSE[t] are the mean squared (normalized) gain errors
	// of f and g at round t+1.
	TaskMSE []float64
	DataMSE []float64
}

// Figure4 is the full estimator-convergence study.
type Figure4 struct {
	Panels []Figure4Panel
}

// Figure4Options extends the shared options.
type Figure4Options struct {
	Options
	Rounds            int // trace length; the paper plots up to ~200
	ExplorationRounds int
	Models            []vfl.BaseModel
}

func (o Figure4Options) withDefaults() Figure4Options {
	o.Options = o.Options.withDefaults()
	if o.Rounds <= 0 {
		o.Rounds = 200
	}
	if o.ExplorationRounds <= 0 {
		o.ExplorationRounds = o.Rounds // keep the game alive for the whole trace
	}
	if o.Models == nil {
		o.Models = []vfl.BaseModel{vfl.RandomForest, vfl.MLP}
	}
	return o
}

// RunFigure4 regenerates Figure 4: for each dataset and base model, run the
// imperfect-information bargaining with a long exploration phase and record
// the two estimators' per-round MSE, averaged over runs. Smoothing is left
// to the consumer; raw means are returned. The context cancels between
// bargaining rounds.
func RunFigure4(ctx context.Context, opts Figure4Options) (*Figure4, error) {
	opts = opts.withDefaults()
	out := &Figure4{}
	for _, model := range opts.Models {
		for _, name := range opts.Datasets {
			p := DefaultProfile(name, model).Scaled(opts.Scale)
			p.GainSource = opts.GainSource
			env, err := BuildEnv(p, opts.Seed)
			if err != nil {
				return nil, err
			}
			panel := Figure4Panel{Dataset: name, Model: model}
			// Runs execute across core.Batch's worker pool — each session
			// plays through the vectorized estimator scans — keeping the
			// averaged curves deterministic in the seed.
			cfgs := env.SessionConfigs(opts.Runs, opts.Seed, func(_ int, cfg *core.SessionConfig) {
				cfg.EpsTask, cfg.EpsData = p.EpsImperfect, p.EpsImperfect
				cfg.MaxRounds = opts.Rounds
			})
			params := core.ImperfectParams{ExplorationRounds: opts.ExplorationRounds}
			results, err := core.Batch(ctx, opts.Runs, opts.Workers, func(ctx context.Context, r int) (*core.ImperfectResult, error) {
				return core.NewSession(env.Catalog, cfgs[r]).RunImperfect(ctx, params)
			})
			if err != nil {
				return nil, err
			}
			taskSeries := make([][]float64, opts.Runs)
			dataSeries := make([][]float64, opts.Runs)
			for r, res := range results {
				taskSeries[r], dataSeries[r] = res.TaskMSE, res.DataMSE
			}
			panel.TaskMSE = meanAcrossRuns(taskSeries, opts.Rounds)
			panel.DataMSE = meanAcrossRuns(dataSeries, opts.Rounds)
			out.Panels = append(out.Panels, panel)
		}
	}
	return out, nil
}

// meanAcrossRuns averages ragged per-run series position-wise over the runs
// still active at each round.
func meanAcrossRuns(series [][]float64, horizon int) []float64 {
	out := make([]float64, 0, horizon)
	for t := 0; t < horizon; t++ {
		var vals []float64
		for _, s := range series {
			if t < len(s) {
				vals = append(vals, s[t])
			}
		}
		if len(vals) == 0 {
			break
		}
		out = append(out, stats.Mean(vals))
	}
	return out
}

// SmoothMSE applies a trailing moving average of the given window to an MSE
// trace, as is conventional when plotting noisy per-round losses.
func SmoothMSE(mse []float64, window int) []float64 {
	if window <= 1 {
		return append([]float64(nil), mse...)
	}
	out := make([]float64, len(mse))
	sum := 0.0
	for i, v := range mse {
		sum += v
		if i >= window {
			sum -= mse[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}
