package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bundlekey"
	"repro/internal/rng"
)

// Bundle is one good on the VFL market: a combination of the data party's
// original features (Definition 2.1), with the data party's private reserved
// price attached.
type Bundle struct {
	ID       int
	Features []int // data-party original-feature indices
	Reserved ReservedPrice
}

// GainProvider supplies the performance gain ΔG a VFL course on a bundle
// would realize. vfl.GainOracle satisfies it via GainFunc; tests use the
// fast SyntheticGains. The features slice is shared and read-only: the
// catalog's own bundle, or over the wire the session Hello's listing,
// which every session of a connection shares.
type GainProvider interface {
	Gain(features []int) float64
}

// GainFunc adapts a plain function to GainProvider.
type GainFunc func(features []int) float64

// Gain implements GainProvider.
func (f GainFunc) Gain(features []int) float64 { return f(features) }

// Warmer is implemented by gain providers that can pre-price many bundles
// concurrently (vfl.GainOracle does). NewCatalog warms such a provider
// with every bundle before it reads the gains, so the pre-bargaining
// training runs on a worker pool instead of serially.
type Warmer interface {
	Warm(ctx context.Context, bundles [][]int) error
}

// Catalog is the data party's sell-side inventory F: the finite set of
// feature bundles it offers, with their (privately known, in the perfect
// information setting) gains.
type Catalog struct {
	Bundles []Bundle
	gains   []float64      // parallel to Bundles
	byKey   map[string]int // canonical feature key → bundle index
}

// CatalogConfig controls catalog generation.
type CatalogConfig struct {
	// Size is the number of bundles. All singletons are always included;
	// the remainder are random subsets stratified by size. <= 0 means 32.
	Size int
	// BaseRate and BaseBase anchor the reserved prices (p_l, P_l): a bundle
	// with all features costs about BaseRate·(0.6 + CostSlope), a singleton
	// about BaseRate·0.6, so reserved rates straddle a low initial quote.
	BaseRate float64 // <= 0 means 8
	BaseBase float64 // <= 0 means 1.0
	// CostSlope makes bigger bundles more expensive, reflecting collection
	// cost (§2): reserved prices grow linearly in |F|/d. <= 0 means 0.55.
	CostSlope float64
	// Noise is the multiplicative jitter on reserved prices. <= 0 means 0.08.
	Noise float64
}

func (c CatalogConfig) withDefaults() CatalogConfig {
	if c.Size <= 0 {
		c.Size = 32
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 8
	}
	if c.BaseBase <= 0 {
		c.BaseBase = 1.0
	}
	if c.CostSlope <= 0 {
		c.CostSlope = 0.55
	}
	if c.Noise <= 0 {
		c.Noise = 0.08
	}
	return c
}

// NewCatalog builds a bundle catalog over numFeatures data-party features:
// every singleton plus size-stratified random subsets up to the full set,
// de-duplicated, with cost-related reserved prices, and queries gains for
// every bundle from the provider (the perfect-information setting's
// pre-bargaining training by the trusted third party).
func NewCatalog(numFeatures int, cfg CatalogConfig, src *rng.Source, gains GainProvider) *Catalog {
	if numFeatures <= 0 {
		panic("core: catalog needs at least one data-party feature")
	}
	cfg = cfg.withDefaults()
	seen := make(map[string]bool)
	cat := &Catalog{}
	add := func(features []int) {
		sort.Ints(features)
		key := bundlekey.Key(features)
		if seen[key] {
			return
		}
		seen[key] = true
		frac := float64(len(features)) / float64(numFeatures)
		jr := 1 + float64(cfg.Noise*src.Gauss(0, 1))
		jb := 1 + float64(cfg.Noise*src.Gauss(0, 1))
		cat.Bundles = append(cat.Bundles, Bundle{
			ID:       len(cat.Bundles),
			Features: features,
			Reserved: ReservedPrice{
				Rate: math.Max(0.1, cfg.BaseRate*(0.6+float64(cfg.CostSlope*frac))*jr),
				Base: math.Max(0.01, cfg.BaseBase*(0.6+float64(cfg.CostSlope*frac))*jb),
			},
		})
	}
	for f := 0; f < numFeatures; f++ {
		add([]int{f})
	}
	// Full bundle: the highest-gain good.
	full := make([]int, numFeatures)
	for i := range full {
		full[i] = i
	}
	add(full)
	for guard := 0; len(cat.Bundles) < cfg.Size && guard < cfg.Size*50; guard++ {
		k := 2 + src.IntN(maxInt(1, numFeatures-1))
		if k > numFeatures {
			k = numFeatures
		}
		add(src.Sample(numFeatures, k))
	}
	if w, ok := gains.(Warmer); ok {
		sets := make([][]int, len(cat.Bundles))
		for i, b := range cat.Bundles {
			sets[i] = b.Features
		}
		_ = w.Warm(context.Background(), sets)
	}
	cat.gains = make([]float64, len(cat.Bundles))
	for i, b := range cat.Bundles {
		cat.gains[i] = gains.Gain(b.Features)
	}
	cat.buildIndex()
	return cat
}

// NewCatalogFromBundles builds a catalog from explicit bundles, querying
// the provider for gains, serially. Bundle IDs are reassigned to
// positions.
func NewCatalogFromBundles(bundles []Bundle, gains GainProvider) *Catalog {
	cat := &Catalog{Bundles: append([]Bundle(nil), bundles...)}
	cat.gains = make([]float64, len(cat.Bundles))
	for i := range cat.Bundles {
		cat.Bundles[i].ID = i
		cat.gains[i] = gains.Gain(cat.Bundles[i].Features)
	}
	cat.buildIndex()
	return cat
}

func (c *Catalog) buildIndex() {
	c.byKey = make(map[string]int, len(c.Bundles))
	for i, b := range c.Bundles {
		c.byKey[bundlekey.Key(b.Features)] = i
	}
}

// Len returns the number of bundles.
func (c *Catalog) Len() int { return len(c.Bundles) }

// FindBundle returns the id of the bundle with exactly this feature set
// (order-insensitive), or ok=false when the catalog does not carry it.
// Protocol frontends use it to resolve a peer's offered feature set back to
// a local bundle; the lookup is O(|features|) through a prebuilt index, and
// a sorted feature set (every catalog bundle's) is keyed in a stack buffer,
// so a hit allocates nothing.
func (c *Catalog) FindBundle(features []int) (id int, ok bool) {
	var buf [64]byte
	id, ok = c.byKey[string(bundlekey.AppendKey(buf[:0], features))]
	if !ok {
		return -1, false
	}
	return id, true
}

// Gain returns the (third-party pre-computed) performance gain of bundle id.
func (c *Catalog) Gain(id int) float64 { return c.gains[id] }

// MaxGain returns the highest gain across bundles (ΔG_max) and its bundle
// id. It panics on an empty catalog.
func (c *Catalog) MaxGain() (gain float64, id int) {
	if c.Len() == 0 {
		panic("core: MaxGain on empty catalog")
	}
	id = 0
	for i, g := range c.gains {
		if g > c.gains[id] {
			id = i
		}
	}
	return c.gains[id], id
}

// AffordableInto collects the bundle ids whose reserved prices admit the
// quoted price (the data party's filtering step) into dst, reset to length
// 0 first, and returns it. Every caller filters once a round and passes a
// reused or stack buffer, so the filter allocates nothing.
func (c *Catalog) AffordableInto(dst []int, q QuotedPrice) []int {
	dst = dst[:0]
	for i, b := range c.Bundles {
		if b.Reserved.Admits(q) {
			dst = append(dst, i)
		}
	}
	return dst
}

// ClosestBelow returns, among the given bundle ids, the one whose gain is
// nearest to target without exceeding it; ok is false when every gain
// exceeds the target.
func (c *Catalog) ClosestBelow(ids []int, target float64) (best int, ok bool) {
	best = -1
	for _, id := range ids {
		g := c.gains[id]
		if g > target {
			continue
		}
		if best < 0 || g > c.gains[best] {
			best = id
		}
	}
	return best, best >= 0
}

// ClosestAbove returns, among the given bundle ids, the one whose gain is
// nearest to target from strictly above; ok is false when none exceeds it.
func (c *Catalog) ClosestAbove(ids []int, target float64) (best int, ok bool) {
	best = -1
	for _, id := range ids {
		g := c.gains[id]
		if g <= target {
			continue
		}
		if best < 0 || g < c.gains[best] {
			best = id
		}
	}
	return best, best >= 0
}

// SuggestInitialPrice returns an opening (rate, base) that affords the
// cheapest bundle with a small margin — the natural lowball quote a rational
// task party opens with, since quoting below every reserved price triggers
// an immediate Case 1 failure. It panics on an empty catalog.
func (c *Catalog) SuggestInitialPrice() (rate, base float64) {
	if c.Len() == 0 {
		panic("core: SuggestInitialPrice on empty catalog")
	}
	best := 0
	score := func(r ReservedPrice) float64 { return r.Rate + float64(5*r.Base) }
	for i, b := range c.Bundles {
		if score(b.Reserved) < score(c.Bundles[best].Reserved) {
			best = i
		}
	}
	r := c.Bundles[best].Reserved
	return r.Rate * 1.02, r.Base * 1.02
}

// TargetBundle returns the bundle whose gain is nearest to target (from
// below if any, else overall nearest) — the good the bargaining should
// converge to, whose reserved price the Figure 2/3 density panels compare
// final quotes against. The below-target pick is ClosestBelow over every
// bundle, inlined so that the call allocates no ID slice.
func (c *Catalog) TargetBundle(target float64) int {
	below, best := -1, 0
	for i, g := range c.gains {
		if !(g > target) && (below < 0 || g > c.gains[below]) {
			below = i
		}
		if math.Abs(g-target) < math.Abs(c.gains[best]-target) {
			best = i
		}
	}
	if below >= 0 {
		return below
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SyntheticGains is a fast, deterministic GainProvider with the qualitative
// structure real VFL gains have: monotone under feature inclusion with
// diminishing returns. Each feature f carries a quality q_f in (0, 1); a
// bundle's gain is MaxGain·(1 - Π(1-q_f)) plus bounded noise. It backs the
// unit/property tests and the fast experiment paths.
type SyntheticGains struct {
	MaxGain   float64
	qualities []float64
	noise     float64
	src       *rng.Source
	memo      map[string]float64
}

// NewSyntheticGains draws per-feature qualities from Beta(2, 4) scaled to
// (0, 0.6). noiseFrac adds reproducible per-bundle noise as a fraction of
// MaxGain (0 disables it).
func NewSyntheticGains(numFeatures int, maxGain, noiseFrac float64, src *rng.Source) *SyntheticGains {
	qs := make([]float64, numFeatures)
	for i := range qs {
		qs[i] = 0.6 * src.Beta(2, 4)
	}
	return &SyntheticGains{
		MaxGain:   maxGain,
		qualities: qs,
		noise:     noiseFrac * maxGain,
		src:       src.Split(0xFEED),
		memo:      make(map[string]float64),
	}
}

// Gain implements GainProvider. Repeated queries for the same bundle return
// the same value (the noise is memoized), matching the determinism of a
// cached third-party evaluation.
func (s *SyntheticGains) Gain(features []int) float64 {
	key := bundlekey.Key(features)
	if g, ok := s.memo[key]; ok {
		return g
	}
	keep := 1.0
	for _, f := range features {
		if f < 0 || f >= len(s.qualities) {
			panic(fmt.Sprintf("core: synthetic gain feature %d out of range", f))
		}
		keep *= 1 - s.qualities[f]
	}
	g := s.MaxGain * (1 - keep)
	if s.noise > 0 {
		g = float64(g) + s.src.Uniform(-s.noise, s.noise)
		if g < 0 {
			g = 0
		}
	}
	s.memo[key] = g
	return g
}
