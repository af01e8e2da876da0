package exp

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vfl"
)

// Table4Col is one column of Table 4: the bargaining-state statistics of
// one (dataset, base model, information setting).
type Table4Col struct {
	Dataset   dataset.Name
	Model     vfl.BaseModel
	Imperfect bool

	// Final-state statistics, mean ± std over the successful runs.
	Rate      Table3Cell // final p
	Base      Table3Cell // final P0
	High      Table3Cell // final Ph
	DRate     Table3Cell // Δp  = p - p_l of the target bundle
	DBase     Table3Cell // ΔP0 = P0 - P_l of the target bundle
	Gain      Table3Cell // realized ΔG
	NetProfit Table3Cell
	Payment   Table3Cell

	SuccessRate float64
}

// Table4 is the imperfect-vs-perfect comparison for both base models.
type Table4 struct {
	Cols []Table4Col
}

// Table4Options extends the shared options with the imperfect-information
// knobs of §4.4.
type Table4Options struct {
	Options
	ExplorationRounds int // N; the paper uses 100
	MaxRounds         int // cap per session; the paper uses 500
	Models            []vfl.BaseModel
}

func (o Table4Options) withDefaults() Table4Options {
	o.Options = o.Options.withDefaults()
	if o.ExplorationRounds <= 0 {
		o.ExplorationRounds = 100
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 500
	}
	if o.Models == nil {
		o.Models = []vfl.BaseModel{vfl.RandomForest, vfl.MLP}
	}
	return o
}

// RunTable4 regenerates Table 4: final p, P0, Ph, Δp, ΔP0, ΔG, net profit
// and payment under imperfect vs perfect performance information, for both
// base models and all datasets, with εd = εt set to the §4.4 values. The
// context cancels between bargaining rounds.
func RunTable4(ctx context.Context, opts Table4Options) (*Table4, error) {
	opts = opts.withDefaults()
	out := &Table4{}
	for _, model := range opts.Models {
		for _, name := range opts.Datasets {
			p := DefaultProfile(name, model).Scaled(opts.Scale)
			p.GainSource = opts.GainSource
			env, err := BuildEnv(p, opts.Seed)
			if err != nil {
				return nil, err
			}
			for _, imperfect := range []bool{true, false} {
				col, err := runTable4Col(ctx, env, p, imperfect, opts)
				if err != nil {
					return nil, err
				}
				out.Cols = append(out.Cols, col)
			}
		}
	}
	return out, nil
}

func runTable4Col(ctx context.Context, env *Env, p Profile, imperfect bool, opts Table4Options) (Table4Col, error) {
	col := Table4Col{Dataset: p.Name, Model: p.Model, Imperfect: imperfect}
	target := env.Catalog.TargetBundle(env.Session.TargetGain)
	reserved := env.Catalog.Bundles[target].Reserved

	// Runs execute across core.Batch's worker pool; results come back in
	// run order, so aggregation stays deterministic in the seed. The
	// imperfect column plays every session through the vectorized
	// estimator scans.
	cfgs := env.SessionConfigs(opts.Runs, opts.Seed, func(_ int, cfg *core.SessionConfig) {
		cfg.MaxRounds = opts.MaxRounds
		if imperfect {
			cfg.EpsTask, cfg.EpsData = p.EpsImperfect, p.EpsImperfect
		}
	})
	var results []*core.Result
	var err error
	if imperfect {
		params := core.ImperfectParams{ExplorationRounds: opts.ExplorationRounds}
		results, err = core.Batch(ctx, opts.Runs, opts.Workers, func(ctx context.Context, r int) (*core.Result, error) {
			res, err := core.NewSession(env.Catalog, cfgs[r]).RunImperfect(ctx, params)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		})
	} else {
		results, err = env.RunBatch(ctx, cfgs, opts.Workers)
	}
	if err != nil {
		return col, err
	}

	var rates, bases, highs, dRates, dBases, gains, nets, pays []float64
	successes := 0
	for _, res := range results {
		final := res.Final
		if res.Outcome != core.Success {
			continue
		}
		successes++
		rates = append(rates, final.Price.Rate)
		bases = append(bases, final.Price.Base)
		highs = append(highs, final.Price.High)
		dRates = append(dRates, final.Price.Rate-reserved.Rate)
		dBases = append(dBases, final.Price.Base-reserved.Base)
		gains = append(gains, final.Gain)
		nets = append(nets, final.NetProfit)
		pays = append(pays, final.Payment)
	}
	col.SuccessRate = float64(successes) / float64(opts.Runs)
	col.Rate = summarizeCell(rates)
	col.Base = summarizeCell(bases)
	col.High = summarizeCell(highs)
	col.DRate = summarizeCell(dRates)
	col.DBase = summarizeCell(dBases)
	col.Gain = summarizeCell(gains)
	col.NetProfit = summarizeCell(nets)
	col.Payment = summarizeCell(pays)
	return col, nil
}
