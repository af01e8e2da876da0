// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation section, producing the same rows and series the
// paper reports. Each runner is deterministic in its seed and is exposed
// through cmd/figures, cmd/tables, and the root-level benchmarks.
package exp

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bundlekey"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/tree"
	"repro/internal/vfl"
)

// GainSource selects where per-bundle performance gains come from.
type GainSource int

// Gain sources.
const (
	// GainVFL trains real VFL courses through vfl.GainOracle (the paper's
	// setting; slower).
	GainVFL GainSource = iota
	// GainSynthetic uses the closed-form diminishing-returns model with the
	// dataset's gain magnitude (fast; used by tests and quick runs).
	GainSynthetic
)

// Profile is the per-dataset market parameterization: the task party's
// private utility rate and budget, the tolerance defaults of Tables 3–4, and
// the data sizes that keep repeated experiments tractable.
type Profile struct {
	Name  dataset.Name
	Model vfl.BaseModel

	U      float64 // utility rate u (paper-scale: net profits match Figs. 2–3)
	Budget float64 // B

	EpsPerfect   float64 // εt = εd default under perfect information
	EpsImperfect float64 // εt = εd default under imperfect information (§4.4)

	SampleCap   int // dataset subsample used for VFL training
	CatalogSize int
	GainSource  GainSource
	MaxGainHint float64 // synthetic-gain magnitude for GainSynthetic

	// VFL training cost knobs.
	ForestTrees, ForestDepth int
	ForestMaxFeatures        int // per-split feature subsample; 0 = sqrt(d)
	MLPEpochs                int
	// GainRepeats averages each bundle's gain evaluation over independent
	// trainings; datasets with tiny relative gains need more.
	GainRepeats int
	// ValuationWorkers bounds the oracle worker pool pre-pricing the
	// catalog under GainVFL: 0 means min(GOMAXPROCS, bundles), 1 restores
	// serial pricing.
	ValuationWorkers int
	// Registry, when non-nil, resolves the profile's GainVFL oracle through
	// the process-wide registry instead of building a private one: profiles
	// with the same OracleKey share one oracle (and its valuation memo), and
	// a persistence-backed registry pre-loads the memo from disk — so
	// catalog construction prices warm bundles without retraining. Inert
	// under GainSynthetic.
	Registry *vfl.Registry
}

// OracleKey is the canonical composite identity of the profile's valuation
// oracle: everything that determines a bundle's measured gain — dataset,
// model, seed, and every training knob. Profiles agreeing on this key can
// share one oracle and each other's persisted valuations; any difference
// keys a distinct oracle.
func (p Profile) OracleKey(seed uint64) string {
	return bundlekey.Fields(
		"oracle", string(p.Name), fmt.Sprintf("model:%d", p.Model),
		fmt.Sprintf("seed:%d", seed),
		fmt.Sprintf("cap:%d", p.SampleCap),
		fmt.Sprintf("trees:%d:%d:%d", p.ForestTrees, p.ForestDepth, p.ForestMaxFeatures),
		fmt.Sprintf("epochs:%d", p.MLPEpochs),
		fmt.Sprintf("repeats:%d", p.GainRepeats),
	)
}

// DefaultProfile returns the paper-aligned profile for a dataset and base
// model. Utility rates are chosen so the revenue magnitudes match the
// paper's figures (u ≈ 1000 for Titanic/Credit, u ≈ 80 for Adult — see
// EXPERIMENTS.md).
func DefaultProfile(name dataset.Name, model vfl.BaseModel) Profile {
	p := Profile{
		Name:        name,
		Model:       model,
		CatalogSize: 32,
		ForestTrees: 10, ForestDepth: 8,
		MLPEpochs: 25,
	}
	switch name {
	case dataset.Titanic:
		p.U, p.Budget = 1000, 8
		p.EpsPerfect, p.EpsImperfect = 1e-3, 5e-2
		p.SampleCap = 891
		p.MaxGainHint = 0.18
		p.GainRepeats = 1
	case dataset.Credit:
		p.U, p.Budget = 1000, 4
		p.EpsPerfect, p.EpsImperfect = 1e-5, 1e-3
		p.SampleCap = 2500
		p.MaxGainHint = 0.006
		p.GainRepeats = 3
		p.ForestTrees = 16
	case dataset.Adult:
		p.U, p.Budget = 80, 4
		p.EpsPerfect, p.EpsImperfect = 1e-4, 5e-3
		p.SampleCap = 2500
		p.MaxGainHint = 0.032
		p.GainRepeats = 3
		// Adult's one-hot encoding spreads the signal over 88 columns; the
		// default sqrt(d) per-split subsample and a shallow depth dilute it
		// badly, so this profile grows a bigger forest.
		p.ForestTrees = 20
		p.ForestDepth = 12
		p.ForestMaxFeatures = 24
	default:
		panic("exp: unknown dataset " + string(name))
	}
	return p
}

// Scaled returns a copy with the expensive knobs shrunk by the given factor
// (0 < f <= 1), for fast test and benchmark paths.
func (p Profile) Scaled(f float64) Profile {
	if f <= 0 || f > 1 {
		panic("exp: scale factor must be in (0, 1]")
	}
	shrink := func(v int, lo int) int {
		s := int(float64(v) * f)
		if s < lo {
			return lo
		}
		return s
	}
	p.SampleCap = shrink(p.SampleCap, 200)
	p.CatalogSize = shrink(p.CatalogSize, 10)
	p.ForestTrees = shrink(p.ForestTrees, 4)
	p.MLPEpochs = shrink(p.MLPEpochs, 6)
	// GainRepeats is deliberately not shrunk: evaluation noise is what it
	// exists to suppress, and small scales make it worse, not better.
	return p
}

// Env is a fully built market environment: the catalog with gains attached
// and the session template shared by every run of an experiment.
type Env struct {
	Profile Profile
	Catalog *core.Catalog
	Session core.SessionConfig
	// Oracle is non-nil when GainSource is GainVFL; it exposes training
	// counts for the caching ablation.
	Oracle *vfl.GainOracle
}

// BuildEnv constructs the market for a profile: generate (or synthesize
// gains for) the dataset, build the catalog with cost-related reserved
// prices, pick the target gain ΔG* = ΔG_max, and derive the opening quote.
func BuildEnv(p Profile, seed uint64) (*Env, error) {
	src := rng.New(seed)
	var provider core.GainProvider
	var oracle *vfl.GainOracle
	numFeatures := 0
	switch p.GainSource {
	case GainSynthetic:
		spec := dataset.Generate(p.Name, seed, 50) // schema only, for feature count
		_, split := spec.Split()
		numFeatures = len(split.DataGroups)
		provider = core.NewSyntheticGains(numFeatures, p.MaxGainHint, 0.03, src.Split(1))
	default:
		spec := dataset.Generate(p.Name, seed, p.SampleCap)
		problem := vfl.NewProblem(spec, seed, 0.3)
		numFeatures = problem.NumDataFeatures()
		cfg := vfl.Config{
			Model: p.Model,
			Seed:  seed,
			Forest: tree.ForestConfig{
				NumTrees: p.ForestTrees, MaxDepth: p.ForestDepth,
				MaxFeatures: p.ForestMaxFeatures,
			},
			Epochs:  p.MLPEpochs,
			Repeats: p.GainRepeats,
		}
		if p.Registry != nil {
			// The registry owns oracle identity: same key → same oracle, so
			// concurrent engines over one dataset share one memo, and a
			// persistence-backed registry hands back a pre-loaded one — the
			// catalog construction below then prices from the memo instead
			// of retraining.
			oracle, _ = p.Registry.Oracle(p.OracleKey(seed), func() *vfl.GainOracle {
				return vfl.NewGainOracle(problem, cfg)
			})
		} else {
			oracle = vfl.NewGainOracle(problem, cfg)
		}
		// The oracle itself is the provider (not a GainFunc closure over it)
		// so catalog construction sees its Warm method and pre-prices the
		// inventory across the valuation worker pool.
		provider = oracle
	}
	catalog := core.NewCatalog(numFeatures, core.CatalogConfig{
		Size:             p.CatalogSize,
		BaseRate:         8.5,
		BaseBase:         1.25,
		ValuationWorkers: p.ValuationWorkers,
	}, src.Split(2), provider)
	if p.GainSource == GainVFL {
		catalog = repriceAndFilter(catalog, provider, src.Split(3))
	}

	target, _ := catalog.MaxGain()
	if target <= 0 {
		// Degenerate draw (can happen with tiny real gains and eval noise):
		// fall back to the dataset's nominal magnitude so the market is
		// still well-posed.
		target = math.Max(p.MaxGainHint, 1e-4)
	}
	// Individual rationality calibration: the profile's u is stated for
	// paper-scale gains. When the measured gains come out smaller (small
	// subsamples, noisy evaluation), a task party with that u would never
	// profitably trade. A buyer enters this market only if every marketed
	// good can clear its Case 4 break-even throughout its affordability
	// window, so calibrate u to the most demanding bundle with a 35%
	// margin: u ≥ 1.35·(p_l + P_l/ΔG_i) for all i.
	for i, b := range catalog.Bundles {
		g := catalog.Gain(i)
		if g <= 0 {
			continue
		}
		if req := 1.35 * (b.Reserved.Rate + b.Reserved.Base/g); req > p.U {
			p.U = req
		}
	}

	rate, base := openingPrice(catalog, p.U)
	session := core.SessionConfig{
		U:          p.U,
		Budget:     p.Budget,
		TargetGain: target,
		InitRate:   rate,
		InitBase:   base,
		EpsTask:    p.EpsPerfect,
		EpsData:    p.EpsPerfect,
		MaxRounds:  500,
	}
	if err := session.Validate(); err != nil {
		return nil, fmt.Errorf("exp: profile %s/%s: %w", p.Name, p.Model, err)
	}
	return &Env{Profile: p, Catalog: catalog, Session: session, Oracle: oracle}, nil
}

// SessionConfigs derives the per-run session configurations of a repeated
// experiment from the env's template: run r gets the independent seed
// rng.DeriveSeed(seed, r), then mutate (when non-nil) adjusts the config.
// The slice feeds RunBatch or core.Batch, so repeated studies are
// deterministic in seed alone regardless of worker count.
func (e *Env) SessionConfigs(runs int, seed uint64, mutate func(r int, cfg *core.SessionConfig)) []core.SessionConfig {
	cfgs := make([]core.SessionConfig, runs)
	for r := range cfgs {
		cfg := e.Session
		cfg.Seed = rng.DeriveSeed(seed, uint64(r))
		if mutate != nil {
			mutate(r, &cfg)
		}
		cfgs[r] = cfg
	}
	return cfgs
}

// RunBatch plays the perfect-information game of every session
// configuration concurrently over the env's catalog with a bounded worker
// pool (workers <= 0 means GOMAXPROCS), returning results in config order.
// See core.Batch for the error and cancellation contract.
func (e *Env) RunBatch(ctx context.Context, cfgs []core.SessionConfig, workers int) ([]*core.Result, error) {
	return core.Batch(ctx, len(cfgs), workers, func(ctx context.Context, i int) (*core.Result, error) {
		return core.NewSession(e.Catalog, cfgs[i]).RunPerfect(ctx)
	})
}

// openingPrice picks the task party's lowball opening quote: it must afford
// at least one bundle that also clears the Case 4 break-even at that quote,
// or the strategic data party declines in round 1. Among such viable
// bundles it takes the cheapest reserved price with a 2% margin, falling
// back to the plain cheapest bundle when none is viable (the session then
// fails fast, which is the honest outcome for a degenerate market).
func openingPrice(cat *core.Catalog, u float64) (rate, base float64) {
	best := -1
	score := func(r core.ReservedPrice) float64 { return r.Rate + 5*r.Base }
	for i, b := range cat.Bundles {
		r := core.ReservedPrice{Rate: b.Reserved.Rate * 1.02, Base: b.Reserved.Base * 1.02}
		if u <= r.Rate {
			continue
		}
		if cat.Gain(i) < r.Base/(u-r.Rate) {
			continue // the bundle cannot survive Case 4 at its own price
		}
		if best < 0 || score(b.Reserved) < score(cat.Bundles[best].Reserved) {
			best = i
		}
	}
	if best < 0 {
		return cat.SuggestInitialPrice()
	}
	r := cat.Bundles[best].Reserved
	return r.Rate * 1.02, r.Base * 1.02
}

// repriceAndFilter adapts a real-VFL catalog to what a rational data party
// would actually market. First it withdraws bundles whose measured gain is
// non-positive or below 10% of the flagship bundle's — they cannot earn
// meaningfully beyond the base payment and their offer risks an immediate
// Case 4 walkout (at least the three best-gain bundles always survive so a
// market exists). Then it re-anchors the reserved
// prices to blend collection cost (bundle size, §2's example) with the
// bundle's measured value: a seller that pre-trained every bundle with the
// third party knows which goods are valuable and reserves accordingly.
// Value-correlated reservation is what makes the escalation ladder
// well-ordered under noisy real gains: cheap goods are the weak ones, so
// affordability and Case 4 viability rise together.
func repriceAndFilter(cat *core.Catalog, provider core.GainProvider, src *rng.Source) *core.Catalog {
	type scored struct {
		b    core.Bundle
		gain float64
	}
	var all []scored
	maxGain := 0.0
	for i, b := range cat.Bundles {
		g := cat.Gain(i)
		all = append(all, scored{b, g})
		if g > maxGain {
			maxGain = g
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].gain > all[j].gain })
	var keep []core.Bundle
	for rank, s := range all {
		if s.gain <= 0.1*maxGain && rank >= 3 {
			continue
		}
		b := s.b
		value := 0.0
		if maxGain > 0 {
			value = math.Max(0, s.gain) / maxGain
		}
		frac := float64(len(b.Features)) / float64(maxFeatureIndex(cat)+1)
		factor := 0.55 + 0.15*frac + 0.45*value
		jr := 1 + 0.04*src.Gauss(0, 1)
		jb := 1 + 0.04*src.Gauss(0, 1)
		b.Reserved = core.ReservedPrice{
			Rate: math.Max(0.1, 8.5*factor*jr),
			Base: math.Max(0.01, 1.25*factor*jb),
		}
		keep = append(keep, b)
	}
	return core.NewCatalogFromBundles(keep, provider)
}

func maxFeatureIndex(cat *core.Catalog) int {
	m := 0
	for _, b := range cat.Bundles {
		for _, f := range b.Features {
			if f > m {
				m = f
			}
		}
	}
	return m
}
