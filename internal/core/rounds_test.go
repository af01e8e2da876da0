package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
)

// exactCopy fails unless rounds is exactly sized, and returns a deep copy
// to compare it with later.
func exactCopy(t *testing.T, name string, rounds []RoundRecord) []RoundRecord {
	t.Helper()
	if len(rounds) == 0 {
		t.Fatalf("%s: no rounds", name)
	}
	if cap(rounds) != len(rounds) {
		t.Fatalf("%s: cap %d, len %d: the rounds are not an exact-size copy", name, cap(rounds), len(rounds))
	}
	return slices.Clone(rounds)
}

// TestRoundsNeverAliased: every exit of a session hands its caller rounds
// of their own, exactly sized, that no later session writes: a finished
// perfect session (whose observer sees the same copy), one cancelled
// mid-walk, and an imperfect resume, each checked after a batch of 16
// sessions at 4 workers and a few serial ones have reused the round
// scratch.
func TestRoundsNeverAliased(t *testing.T) {
	cat := testCatalog(t, 6, 81)
	var seen Result
	obs := ObserverFuncs{Outcome: func(r Result) { seen = r }}
	a, err := NewSession(cat, sessionFor(cat, 81)).Observe(obs).RunPerfect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	aCopy := exactCopy(t, "finished session", a.Rounds)
	if &seen.Rounds[0] != &a.Rounds[0] {
		t.Fatal("the outcome observer saw other rounds than the caller got")
	}

	// Cancelled after its fifth realized round, before the sixth.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := NewSession(cat, sessionFor(cat, 82)).Observe(ObserverFuncs{Round: func(rec RoundRecord) {
		if rec.Round == 5 {
			cancel()
		}
	}})
	pol, err := cut.preparePerfect()
	if err != nil {
		t.Fatal(err)
	}
	var cutRes Result
	err = cut.play(ctx, pol.cfg, pol, &catalogSeller{cat: cat, cfg: pol.cfg, src: pol.src},
		func(o SellerOffer) float64 { return cat.Gain(o.BundleID) }, &cutRes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk returned %v", err)
	}
	cutCopy := exactCopy(t, "cancelled session", cutRes.Rounds)

	// An imperfect resume from a mid-session checkpoint.
	cfg, params := imperfectFor(cat, 83)
	var ck *ImperfectCheckpoint
	var sellerCk *SellerCheckpoint
	seller := imperfectSellerFor(cat, cfg, params)
	sess := NewSession(cat, cfg).OnCheckpoint(func(c *ImperfectCheckpoint) {
		if c.Round == 10 {
			ck = c
			if sellerCk, err = seller.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := sess.RunImperfectWith(context.Background(), params, seller, catGains(t, cat)); err != nil {
		t.Fatal(err)
	}
	seller.Release()
	if ck == nil {
		t.Fatal("no checkpoint at round 10")
	}
	restored, err := RestoreEstimatorSeller(cat, sellerCk)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSession(cat, cfg).ResumeImperfectWith(context.Background(), params, ck, restored, catGains(t, cat))
	restored.Release()
	if err != nil {
		t.Fatal(err)
	}
	resumedCopy := exactCopy(t, "resumed session", resumed.Rounds)
	if &resumed.Rounds[0] == &ck.Rounds[0] {
		t.Fatal("the resumed rounds alias the checkpoint's")
	}

	batch, err := Batch(context.Background(), 16, 4, func(ctx context.Context, i int) (*Result, error) {
		return NewSession(cat, sessionFor(cat, rng.DeriveSeed(84, uint64(i)))).RunPerfect(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		exactCopy(t, "batch session", r.Rounds)
		if &r.Rounds[0] == &a.Rounds[0] {
			t.Fatalf("batch session %d shares session A's rounds", i)
		}
	}
	for seed := uint64(85); seed < 88; seed++ {
		if _, err := NewSession(cat, sessionFor(cat, seed)).RunPerfect(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []RoundRecord
	}{
		{"finished session", a.Rounds, aCopy},
		{"cancelled session", cutRes.Rounds, cutCopy},
		{"resumed session", resumed.Rounds, resumedCopy},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: its rounds changed after later sessions ran", c.name)
		}
	}
}
