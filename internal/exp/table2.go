package exp

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vfl"
)

// Table2Row is one dataset's statistics row.
type Table2Row struct {
	Stats dataset.Stats
}

// RunTable2 regenerates Table 2: samples, original feature counts, and
// per-party preprocessed (indicator-encoded) feature counts for the three
// datasets at their paper-scale sample counts.
func RunTable2(seed uint64) []Table2Row {
	var rows []Table2Row
	for _, name := range dataset.AllNames() {
		spec := dataset.Generate(name, seed, 0) // paper sample counts
		_, split := spec.Split()
		st := dataset.TableStats(spec.Dataset, split)
		if name == dataset.Credit {
			// The Credit source data carries an ID column that preprocessing
			// drops; Table 2 counts it among the 25 original variables.
			st.OriginalFeatures++
		}
		rows = append(rows, Table2Row{Stats: st})
	}
	return rows
}

// GainCacheAblation measures what the gain-memoizing oracle saves: it plays
// one strategic bargaining session and reports how many VFL trainings were
// run versus how many a cache-less implementation would have run (one per
// bargaining round plus the catalog's pre-training and the baseline).
type GainCacheAblation struct {
	Rounds             int
	TrainingsWithCache int
	TrainingsWithout   int
}

// RunGainCacheAblation runs the ablation on a real-VFL environment.
func RunGainCacheAblation(name dataset.Name, model vfl.BaseModel, scale float64, seed uint64) (*GainCacheAblation, error) {
	p := DefaultProfile(name, model).Scaled(scale)
	p.GainSource = GainVFL
	env, err := BuildEnv(p, seed)
	if err != nil {
		return nil, err
	}
	cfg := env.Session
	cfg.Seed = seed
	res, err := core.RunPerfect(env.Catalog, cfg)
	if err != nil {
		return nil, err
	}
	return &GainCacheAblation{
		Rounds:             len(res.Rounds),
		TrainingsWithCache: env.Oracle.Trainings(),
		// Without memoization: the catalog pre-training, the baseline, and a
		// fresh VFL course every bargaining round.
		TrainingsWithout: env.Oracle.CacheSize() + 1 + len(res.Rounds),
	}, nil
}
