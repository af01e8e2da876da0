package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// catGains adapts catalog lookup to the GainProvider a *With run realizes
// gains through, mirroring what RunImperfect does internally.
func catGains(t *testing.T, cat *Catalog) GainFunc {
	return func(features []int) float64 {
		id, ok := cat.FindBundle(features)
		if !ok {
			t.Fatalf("gain query for unknown bundle %v", features)
		}
		return cat.Gain(id)
	}
}

func imperfectSellerFor(cat *Catalog, cfg SessionConfig, params ImperfectParams) *EstimatorSeller {
	return NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed:    cfg.Seed,
		Target:  cfg.TargetGain,
		EpsData: cfg.EpsData,
		Params:  params.WithDefaults(),
	})
}

// TestResumeBitIdentical is the contract the whole durable-state subsystem
// rests on: a session checkpointed after any settled round and resumed from
// that checkpoint — both parties restored — finishes with exactly the
// trace, learning curves, and outcome of the uninterrupted run.
func TestResumeBitIdentical(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	cfg, params := imperfectFor(cat, 61)
	gains := catGains(t, cat)

	// Uninterrupted reference run, freezing both parties at every
	// checkpointable moment.
	type pair struct {
		client *ImperfectCheckpoint
		seller *SellerCheckpoint
	}
	var cks []pair
	seller := imperfectSellerFor(cat, cfg, params)
	sess := NewSession(cat, cfg).OnCheckpoint(nil)
	sess.OnCheckpoint(func(ck *ImperfectCheckpoint) {
		sck, err := seller.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, pair{ck, sck})
	})
	ref, err := sess.RunImperfectWith(context.Background(), params, seller, gains)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 3 {
		t.Fatalf("only %d checkpoints, want a meaningful session", len(cks))
	}
	// The reference run with a checkpoint sink must itself match the plain
	// in-process run — snapshotting must not perturb the game.
	plain, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, plain) {
		t.Fatal("checkpoint sink perturbed the reference run")
	}

	// Resume from an early (mid-exploration), middle, and final checkpoint.
	for _, idx := range []int{0, len(cks) / 2, len(cks) - 1} {
		p := cks[idx]
		if p.client.Round != p.seller.Round {
			t.Fatalf("checkpoint %d: parties disagree on round (%d vs %d)",
				idx, p.client.Round, p.seller.Round)
		}
		restored, err := RestoreEstimatorSeller(cat, p.seller)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSession(cat, cfg).ResumeImperfectWith(
			context.Background(), params, p.client, restored, gains)
		if err != nil {
			t.Fatalf("resume from round %d: %v", p.client.Round, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("resume from round %d diverged:\n got outcome %v, %d rounds, final %+v\nwant outcome %v, %d rounds, final %+v",
				p.client.Round, got.Outcome, len(got.Rounds), got.Final,
				ref.Outcome, len(ref.Rounds), ref.Final)
		}
	}
}

// TestResumeRejectsMismatch: a checkpoint must only resume the session it
// was taken from.
func TestResumeRejectsMismatch(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	cfg, params := imperfectFor(cat, 61)
	gains := catGains(t, cat)

	var last *ImperfectCheckpoint
	seller := imperfectSellerFor(cat, cfg, params)
	sess := NewSession(cat, cfg).OnCheckpoint(func(ck *ImperfectCheckpoint) { last = ck })
	if _, err := sess.RunImperfectWith(context.Background(), params, seller, gains); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}

	otherSeed := cfg
	otherSeed.Seed++
	if _, err := NewSession(cat, otherSeed).ResumeImperfectWith(
		context.Background(), params, last, imperfectSellerFor(cat, otherSeed, params), gains); err == nil {
		t.Fatal("resume accepted a checkpoint from another seed")
	}
	otherParams := params
	otherParams.ExplorationRounds += 5
	if _, err := NewSession(cat, cfg).ResumeImperfectWith(
		context.Background(), otherParams, last, imperfectSellerFor(cat, cfg, otherParams), gains); err == nil {
		t.Fatal("resume accepted a checkpoint under different regime knobs")
	}
}

// TestSellerCheckpointMatches covers the server-side resume admission rule.
func TestSellerCheckpointMatches(t *testing.T) {
	base := EstimatorSellerConfig{Seed: 7, Target: 0.5, EpsData: 1e-3, Params: ImperfectParams{}.WithDefaults()}
	ck := &SellerCheckpoint{Config: base}
	if !ck.Matches(base) {
		t.Fatal("identical config must match")
	}
	// Defaulted and explicit spellings of the same knobs match.
	loose := base
	loose.Params = ImperfectParams{ExplorationRounds: 100, PricePool: 200, ReplaySteps: 4}
	if !ck.Matches(loose) {
		t.Fatal("defaulted params must match their explicit spelling")
	}
	for _, mut := range []func(*EstimatorSellerConfig){
		func(c *EstimatorSellerConfig) { c.Seed++ },
		func(c *EstimatorSellerConfig) { c.Target *= 2 },
		func(c *EstimatorSellerConfig) { c.EpsData *= 2 },
		func(c *EstimatorSellerConfig) { c.Params.ExplorationRounds = 9 },
	} {
		cfg := base
		mut(&cfg)
		if ck.Matches(cfg) {
			t.Fatalf("mismatched config %+v accepted", cfg)
		}
	}
}

// TestRestoreRefusesCheckpointOutsideCatalog: a seller checkpoint whose
// replay buffer names a feature the catalog lacks, or whose last offer
// names a bundle it lacks, is refused with ErrCheckpointCatalog instead of
// restoring into a seller whose next settlement would panic.
func TestRestoreRefusesCheckpointOutsideCatalog(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	cfg, params := imperfectFor(cat, 61)
	var last *SellerCheckpoint
	seller := imperfectSellerFor(cat, cfg, params)
	sess := NewSession(cat, cfg).OnCheckpoint(func(*ImperfectCheckpoint) {
		ck, err := seller.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		last = ck
	})
	if _, err := sess.RunImperfectWith(context.Background(), params, seller, catGains(t, cat)); err != nil {
		t.Fatal(err)
	}
	if last == nil || len(last.History) == 0 {
		t.Fatal("no checkpoint with a replay buffer captured")
	}
	if _, err := RestoreEstimatorSeller(cat, last); err != nil {
		t.Fatalf("valid checkpoint refused: %v", err)
	}
	failed := *last
	failed.LastOffer = SellerOffer{BundleID: -1, Fail: true}
	if _, err := RestoreEstimatorSeller(cat, &failed); err != nil {
		t.Fatalf("checkpoint ending on a failed offer refused: %v", err)
	}

	for name, damage := range map[string]func(ck *SellerCheckpoint){
		"feature 99":        func(ck *SellerCheckpoint) { ck.History[0].Features = []int{99} },
		"feature -1":        func(ck *SellerCheckpoint) { ck.History[0].Features = []int{0, -1} },
		"bundle Len":        func(ck *SellerCheckpoint) { ck.LastOffer.BundleID = cat.Len() },
		"bundle -1 offered": func(ck *SellerCheckpoint) { ck.LastOffer = SellerOffer{BundleID: -1} },
		"bundle -2 failed":  func(ck *SellerCheckpoint) { ck.LastOffer = SellerOffer{BundleID: -2, Fail: true} },
	} {
		ck := *last
		ck.History = append([]BundleSample(nil), last.History...)
		damage(&ck)
		if _, err := RestoreEstimatorSeller(cat, &ck); !errors.Is(err, ErrCheckpointCatalog) {
			t.Errorf("%s: err = %v, want ErrCheckpointCatalog", name, err)
		}
	}
}

// TestRestoreRoundRange pins the resumable checkpoint rounds to
// [1, MaxRounds): the last round a session can still play after is
// MaxRounds-1.
func TestRestoreRoundRange(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	cfg, params := imperfectFor(cat, 61)
	var last *ImperfectCheckpoint
	sess := NewSession(cat, cfg).OnCheckpoint(func(ck *ImperfectCheckpoint) { last = ck })
	if _, err := sess.RunImperfect(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}
	for _, c := range []struct {
		round int
		ok    bool
	}{{0, false}, {1, true}, {cfg.MaxRounds - 1, true}, {cfg.MaxRounds, false}} {
		pol, err := NewSession(cat, cfg).prepareImperfect(params)
		if err != nil {
			t.Fatal(err)
		}
		ck := *last
		ck.Round = c.round
		err = pol.restore(&ck)
		pol.f.release()
		if (err == nil) != c.ok {
			t.Errorf("restore at round %d of MaxRounds %d: err %v, want ok %v", c.round, cfg.MaxRounds, err, c.ok)
		}
	}
}
