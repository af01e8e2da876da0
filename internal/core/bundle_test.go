package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testGains(numFeatures int, seed uint64) *SyntheticGains {
	return NewSyntheticGains(numFeatures, 0.2, 0, rng.New(seed))
}

func testCatalog(t testing.TB, numFeatures int, seed uint64) *Catalog {
	t.Helper()
	return NewCatalog(numFeatures, CatalogConfig{Size: 24}, rng.New(seed), testGains(numFeatures, seed))
}

func TestCatalogIncludesSingletonsAndFull(t *testing.T) {
	cat := testCatalog(t, 6, 1)
	bySize := map[int]int{}
	for _, b := range cat.Bundles {
		bySize[len(b.Features)]++
	}
	if bySize[1] != 6 {
		t.Fatalf("%d singletons, want 6", bySize[1])
	}
	if bySize[6] < 1 {
		t.Fatal("full bundle missing")
	}
}

func TestCatalogNoDuplicates(t *testing.T) {
	cat := testCatalog(t, 8, 3)
	seen := map[string]bool{}
	for _, b := range cat.Bundles {
		key := ""
		for _, f := range b.Features {
			key += string(rune('a' + f))
		}
		if seen[key] {
			t.Fatalf("duplicate bundle %v", b.Features)
		}
		seen[key] = true
	}
}

func TestCatalogIDsArePositions(t *testing.T) {
	cat := testCatalog(t, 5, 7)
	for i, b := range cat.Bundles {
		if b.ID != i {
			t.Fatalf("bundle %d has ID %d", i, b.ID)
		}
	}
}

func TestCatalogReservedPricesCostRelated(t *testing.T) {
	// Bigger bundles must on average carry higher reserved prices.
	cat := NewCatalog(10, CatalogConfig{Size: 40, Noise: 0.001}, rng.New(9), testGains(10, 9))
	var smallSum, largeSum float64
	var smallN, largeN int
	for _, b := range cat.Bundles {
		if len(b.Features) <= 2 {
			smallSum += b.Reserved.Rate
			smallN++
		} else if len(b.Features) >= 8 {
			largeSum += b.Reserved.Rate
			largeN++
		}
	}
	if smallN == 0 || largeN == 0 {
		t.Skip("catalog draw lacks size extremes")
	}
	if largeSum/float64(largeN) <= smallSum/float64(smallN) {
		t.Fatalf("large bundles not more expensive: %v vs %v",
			largeSum/float64(largeN), smallSum/float64(smallN))
	}
}

func TestCatalogPanicsOnZeroFeatures(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCatalog(0, CatalogConfig{}, rng.New(1), testGains(1, 1))
}

func TestMaxGainIsFullBundleForMonotoneGains(t *testing.T) {
	// Noise-free synthetic gains are monotone under inclusion, so the full
	// bundle realizes ΔG_max.
	cat := testCatalog(t, 6, 11)
	gain, id := cat.MaxGain()
	if len(cat.Bundles[id].Features) != 6 {
		t.Fatalf("max-gain bundle has %d features, want 6", len(cat.Bundles[id].Features))
	}
	for i := 0; i < cat.Len(); i++ {
		if cat.Gain(i) > gain {
			t.Fatal("MaxGain missed a larger gain")
		}
	}
}

func TestAffordableFilters(t *testing.T) {
	cat := testCatalog(t, 6, 13)
	none := cat.Affordable(QuotedPrice{Rate: 0.01, Base: 0.001, High: 1})
	if len(none) != 0 {
		t.Fatalf("tiny quote affords %d bundles", len(none))
	}
	all := cat.Affordable(QuotedPrice{Rate: 1e6, Base: 1e6, High: 2e6})
	if len(all) != cat.Len() {
		t.Fatalf("huge quote affords %d/%d", len(all), cat.Len())
	}
	for _, id := range all {
		if !cat.Bundles[id].Reserved.Admits(QuotedPrice{Rate: 1e6, Base: 1e6, High: 2e6}) {
			t.Fatal("Affordable returned inadmissible bundle")
		}
	}
}

func TestClosestBelowAbove(t *testing.T) {
	gains := []float64{0.05, 0.10, 0.15, 0.20}
	cat := &Catalog{gains: gains}
	for range gains {
		cat.Bundles = append(cat.Bundles, Bundle{ID: len(cat.Bundles)})
	}
	ids := []int{0, 1, 2, 3}
	if id, ok := cat.ClosestBelow(ids, 0.12); !ok || id != 1 {
		t.Fatalf("ClosestBelow(0.12) = %d, %v", id, ok)
	}
	if id, ok := cat.ClosestBelow(ids, 0.05); !ok || id != 0 {
		t.Fatalf("ClosestBelow(0.05) = %d, %v (equal counts as below)", id, ok)
	}
	if _, ok := cat.ClosestBelow(ids, 0.01); ok {
		t.Fatal("ClosestBelow below all gains should fail")
	}
	if id, ok := cat.ClosestAbove(ids, 0.12); !ok || id != 2 {
		t.Fatalf("ClosestAbove(0.12) = %d, %v", id, ok)
	}
	if _, ok := cat.ClosestAbove(ids, 0.2); ok {
		t.Fatal("ClosestAbove at max should fail (strictly above)")
	}
}

func TestTargetBundle(t *testing.T) {
	gains := []float64{0.05, 0.10, 0.20}
	cat := &Catalog{gains: gains}
	for range gains {
		cat.Bundles = append(cat.Bundles, Bundle{ID: len(cat.Bundles)})
	}
	if got := cat.TargetBundle(0.12); got != 1 {
		t.Fatalf("TargetBundle(0.12) = %d", got)
	}
	// Below every gain: nearest overall.
	if got := cat.TargetBundle(0.01); got != 0 {
		t.Fatalf("TargetBundle(0.01) = %d", got)
	}
	// A tie below the target keeps the first bundle, as ClosestBelow over
	// every ID does, and the call allocates nothing.
	cat.gains = []float64{0.10, 0.05, 0.10}
	if got := cat.TargetBundle(0.12); got != 0 {
		t.Fatalf("TargetBundle(0.12) over a tie = %d", got)
	}
	if n := testing.AllocsPerRun(20, func() { cat.TargetBundle(0.12) }); n != 0 {
		t.Fatalf("TargetBundle allocates %v times", n)
	}
}

func TestSyntheticGainsDeterministicAndMemoized(t *testing.T) {
	g := NewSyntheticGains(5, 0.2, 0.1, rng.New(3))
	a := g.Gain([]int{0, 2})
	b := g.Gain([]int{2, 0})
	if a != b {
		t.Fatalf("order-dependent gains: %v vs %v", a, b)
	}
	g2 := NewSyntheticGains(5, 0.2, 0.1, rng.New(3))
	if g2.Gain([]int{0, 2}) != a {
		t.Fatal("same seed should reproduce gains")
	}
}

func TestSyntheticGainsBounds(t *testing.T) {
	g := NewSyntheticGains(8, 0.3, 0, rng.New(5))
	full := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if v := g.Gain(full); v < 0 || v >= 0.3 {
		t.Fatalf("gain out of bounds: %v", v)
	}
}

func TestSyntheticGainsPanicOutOfRange(t *testing.T) {
	g := NewSyntheticGains(3, 0.2, 0, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Gain([]int{5})
}

// Property: noise-free synthetic gains are monotone under inclusion —
// adding a feature never lowers the gain.
func TestSyntheticGainsMonotoneProperty(t *testing.T) {
	f := func(seed uint64, addRaw uint8) bool {
		const n = 8
		g := NewSyntheticGains(n, 0.2, 0, rng.New(seed))
		src := rng.New(seed ^ 0xABC)
		k := 1 + src.IntN(n-1)
		base := src.Sample(n, k)
		add := int(addRaw) % n
		found := false
		for _, f := range base {
			if f == add {
				found = true
			}
		}
		if found {
			return true
		}
		return g.Gain(append(append([]int(nil), base...), add)) >= g.Gain(base)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCatalogFromBundles(t *testing.T) {
	gains := testGains(4, 1)
	cat := NewCatalogFromBundles([]Bundle{
		{ID: 99, Features: []int{0}, Reserved: ReservedPrice{Rate: 5, Base: 1}},
		{ID: 42, Features: []int{1, 2}, Reserved: ReservedPrice{Rate: 6, Base: 1.2}},
	}, gains)
	if cat.Len() != 2 || cat.Bundles[0].ID != 0 || cat.Bundles[1].ID != 1 {
		t.Fatalf("IDs not reassigned: %+v", cat.Bundles)
	}
	if math.Abs(cat.Gain(1)-gains.Gain([]int{1, 2})) > 1e-12 {
		t.Fatal("gains not queried")
	}
}

func TestGainFuncAdapter(t *testing.T) {
	var p GainProvider = GainFunc(func(f []int) float64 { return float64(len(f)) })
	if p.Gain([]int{1, 2, 3}) != 3 {
		t.Fatal("GainFunc adapter broken")
	}
}
