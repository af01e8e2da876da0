package wire

// Unit tests of the hardening caps: the server refuses client-supplied
// imperfect work factors (exploration rounds N, replay steps) above its
// caps before building any session state.

import (
	"strings"
	"testing"
)

func TestValidateImperfectHelloCaps(t *testing.T) {
	cat, _, _, _ := imperfectMarket(t, 97)
	srv := &DataServer{Catalog: cat}
	ok := &ImperfectHello{Seed: 1, Target: 0.1, ExplorationRounds: 100, ReplaySteps: 4}
	if _, err := srv.AdmitImperfect(ok); err != nil {
		t.Fatalf("paper-scale hello refused: %v", err)
	}
	atCap := &ImperfectHello{Seed: 1, Target: 0.1,
		ExplorationRounds: MaxExplorationRounds, ReplaySteps: MaxReplaySteps}
	if _, err := srv.AdmitImperfect(atCap); err != nil {
		t.Fatalf("hello at the caps refused: %v", err)
	}
	if _, err := srv.AdmitImperfect(nil); err == nil {
		t.Fatal("nil hello accepted")
	}
	overN := &ImperfectHello{Seed: 1, Target: 0.1, ExplorationRounds: MaxExplorationRounds + 1}
	if _, err := srv.AdmitImperfect(overN); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("abusive exploration budget: err = %v, want a cap refusal", err)
	}
	overReplay := &ImperfectHello{Seed: 1, Target: 0.1, ReplaySteps: MaxReplaySteps + 1}
	if _, err := srv.AdmitImperfect(overReplay); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("abusive replay budget: err = %v, want a cap refusal", err)
	}

	// A zero hello means the core defaults (100 exploration rounds, 4
	// replay steps), which the caps admit.
	if _, err := srv.AdmitImperfect(&ImperfectHello{Seed: 1, Target: 0.1}); err != nil {
		t.Fatalf("zero hello refused under the caps: %v", err)
	}
}

func TestServeImperfectRefusesAbusiveHello(t *testing.T) {
	cat, cfg, _, _ := imperfectMarket(t, 97)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	abusive := &ImperfectHello{Seed: 1, Target: cfg.TargetGain,
		ExplorationRounds: MaxExplorationRounds + 1}
	if _, err := srv.AdmitImperfect(abusive); err == nil {
		t.Fatal("server admitted an abusive exploration budget")
	}
}
