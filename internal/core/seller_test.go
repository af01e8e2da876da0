package core

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// Affordable returns the bundle ids whose reserved prices admit the quoted
// price, in a fresh slice. No production code calls it: AnswerQuote and
// the sellers filter through AffordableInto with a stack or reused buffer.
func (c *Catalog) Affordable(q QuotedPrice) []int {
	return c.AffordableInto(nil, q)
}

// answerQuoteReference is AnswerQuote as it was written before the
// affordable set moved to a stack buffer and the break-even filter to
// in-place: a heap-allocated affordable set and a fresh viable slice.
func answerQuoteReference(cat *Catalog, q QuotedPrice, u, epsData float64,
	dataCost CostModel, round int, epsDataC float64) SellerOffer {
	affordable := cat.Affordable(q)
	if len(affordable) == 0 {
		return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: -1,
			Reason: "no bundle satisfies the quoted price (Case 1)"}
	}
	if u > q.Rate {
		breakEven := BreakEvenGain(u, q)
		viable := affordable[:0:0]
		for _, id := range affordable {
			if cat.Gain(id) >= breakEven {
				viable = append(viable, id)
			}
		}
		if len(viable) == 0 {
			return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: -1,
				Reason: "no affordable bundle clears the break-even (Case 1)"}
		}
		affordable = viable
	}
	target := q.TargetGain()
	id, ok := cat.ClosestBelow(affordable, target)
	if !ok {
		id, _ = cat.ClosestAbove(affordable, target)
	}
	offer := SellerOffer{BundleID: id, Features: cat.Bundles[id].Features, TargetBundleID: -1}
	gain := cat.Gain(id)
	switch {
	case target-gain <= epsData:
		offer.Accept = true
	case dataAcceptsUnderCost(cat, q, gain, dataCost, round, epsDataC):
		offer.Accept = true
	}
	return offer
}

// randomQuote draws a quote whose rate and base straddle the catalog's
// reserved prices and whose knee lands anywhere in [0, 0.25].
func randomQuote(src *rng.Source) QuotedPrice {
	rate := src.Uniform(2, 16)
	base := src.Uniform(0.2, 2.5)
	return EquilibriumPrice(rate, base, src.Uniform(0, 0.25))
}

// TestAnswerQuoteMatchesReference: the stack-buffered, filter-in-place
// AnswerQuote answers every quote exactly as the allocating form did, on
// the default 32-bundle catalog and on catalogs too big for the stack
// buffer, across every branch: Case 1 on price, Case 1 on break-even, a
// break-even filter that drops some bundles, and Case 2/3 closes.
func TestAnswerQuoteMatchesReference(t *testing.T) {
	cost := CostModel{Kind: LinearCost, Factor: 0.05}
	for _, size := range []int{32, 65, 120} {
		cat := NewCatalog(10, CatalogConfig{Size: size}, rng.New(uint64(size)), testGains(10, uint64(size)))
		if size > affordableInline && cat.Len() <= affordableInline {
			t.Fatalf("size %d: catalog has only %d bundles", size, cat.Len())
		}
		src := rng.New(uint64(size) + 1)
		var priceFails, evenFails, filtered, accepts int
		for i := 0; i < 4000; i++ {
			q := randomQuote(src)
			u := []float64{1000, 60, 30, 18, 5}[i%5]
			round := 1 + i%40
			got := AnswerQuote(cat, q, u, 1e-3, cost, round, 1e-3)
			want := answerQuoteReference(cat, q, u, 1e-3, cost, round, 1e-3)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d, quote %+v, u %v: got %+v, want %+v", size, q, u, got, want)
			}
			affordable := cat.Affordable(q)
			switch {
			case len(affordable) == 0:
				priceFails++
			case got.Fail:
				evenFails++
			default:
				if u > q.Rate {
					for _, id := range affordable {
						if cat.Gain(id) < BreakEvenGain(u, q) {
							filtered++
							break
						}
					}
				}
				if got.Accept {
					accepts++
				}
			}
		}
		if priceFails == 0 || evenFails == 0 || filtered == 0 || accepts == 0 {
			t.Fatalf("size %d: branch coverage price-fails %d, break-even fails %d, filtered %d, accepts %d",
				size, priceFails, evenFails, filtered, accepts)
		}
	}
}

// TestPerfectRoundAllocatesNothing: the data party's answer and the buyer's
// catalog lookup run every perfect round and must not touch the heap on
// the default 32-bundle catalog.
func TestPerfectRoundAllocatesNothing(t *testing.T) {
	cat := NewCatalog(10, CatalogConfig{}, rng.New(5), testGains(10, 5))
	if cat.Len() > affordableInline {
		t.Fatalf("default catalog has %d bundles, more than the stack buffer", cat.Len())
	}
	// q affords every bundle, and at u the break-even filter keeps most.
	q, u := QuotedPrice{Rate: 1e6, Base: 1e6, High: 2e6}, 1e8
	if o := AnswerQuote(cat, q, u, 1e-3, NoCostModel, 1, 0); o.Fail {
		t.Fatalf("quote answered with a failure: %s", o.Reason)
	}
	features := cat.Bundles[cat.Len()-1].Features
	random := &catalogSeller{cat: cat, cfg: SessionConfig{DataStrategy: DataRandomBundle}, src: rng.New(1)}
	for name, f := range map[string]func(){
		"AnswerQuote": func() { AnswerQuote(cat, q, u, 1e-3, NoCostModel, 1, 0) },
		"FindBundle": func() {
			if _, ok := cat.FindBundle(features); !ok {
				t.Fatal("catalog bundle not found")
			}
		},
		"random-bundle Offer": func() {
			if _, err := random.Offer(1, q); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
	}
}
