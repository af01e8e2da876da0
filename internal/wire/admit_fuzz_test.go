package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// admitIdentity is the client identity the admission fuzz server holds a
// checkpoint for, settled through round admitRound.
const (
	admitIdentity = "buyer-1"
	admitRound    = 3
)

// admitServer is a clear DataServer over the imperfect test market whose
// in-memory checkpoint book holds one valid checkpoint: the seller of a real
// session frozen after round admitRound, under admitIdentity. It returns
// the hello that resumes that checkpoint.
func admitServer(tb testing.TB) (*DataServer, ImperfectHello) {
	tb.Helper()
	cat, cfg, gains, params := imperfectMarket(tb, 7)
	wireParams := core.ImperfectParams{ExplorationRounds: params.ExplorationRounds, ReplaySteps: params.ReplaySteps}
	seller := core.NewEstimatorSeller(cat, core.EstimatorSellerConfig{
		Seed: cfg.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData, Params: wireParams,
	})
	var ck *core.SellerCheckpoint
	sess := core.NewSession(cat, cfg).OnCheckpoint(func(c *core.ImperfectCheckpoint) {
		if c.Round == admitRound {
			var err error
			if ck, err = seller.Snapshot(); err != nil {
				tb.Fatal(err)
			}
		}
	})
	if _, err := sess.RunImperfectWith(context.Background(), params, seller, gains); err != nil {
		tb.Fatal(err)
	}
	if ck == nil {
		tb.Fatalf("the session settled fewer than %d rounds", admitRound)
	}
	book := newMemCheckpoints()
	book.Save(admitIdentity, ck)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	srv.Checkpoints = book
	return srv, ImperfectHello{
		Seed: cfg.Seed, Target: cfg.TargetGain,
		ExplorationRounds: wireParams.ExplorationRounds, ReplaySteps: wireParams.ReplaySteps,
		ClientID: admitIdentity, ResumeRound: admitRound,
	}
}

// admitCorpus is the FuzzAdmitImperfect seed set: the resume of the book's
// checkpoint and its one-ahead replay, a fresh session, and hellos that each
// break one admission rule.
func admitCorpus(tb testing.TB) []ImperfectHello {
	_, ok := admitServer(tb)
	fresh := ok
	fresh.ClientID, fresh.ResumeRound = "", 0
	with := func(edit func(ih *ImperfectHello)) ImperfectHello {
		ih := ok
		edit(&ih)
		return ih
	}
	return []ImperfectHello{
		ok,
		with(func(ih *ImperfectHello) { ih.ResumeRound = admitRound - 1 }),
		fresh,
		with(func(ih *ImperfectHello) { ih.ResumeRound = admitRound + 1 }),
		with(func(ih *ImperfectHello) { ih.Seed++ }),
		with(func(ih *ImperfectHello) { ih.ClientID = "buyer-2" }),
		with(func(ih *ImperfectHello) { ih.ClientID = "../buyer-1" }),
		with(func(ih *ImperfectHello) { ih.ClientID = "" }),
		with(func(ih *ImperfectHello) { ih.ResumeRound = -1 }),
		with(func(ih *ImperfectHello) { ih.Target = math.NaN() }),
		with(func(ih *ImperfectHello) { ih.Target = math.Inf(1) }),
		with(func(ih *ImperfectHello) { ih.Target = -0.5 }),
		with(func(ih *ImperfectHello) { ih.ExplorationRounds = DefaultMaxExplorationRounds + 1 }),
		with(func(ih *ImperfectHello) { ih.ReplaySteps = math.MaxInt }),
		with(func(ih *ImperfectHello) { ih.ExplorationRounds, ih.ReplaySteps = -7, -7 }),
	}
}

// writeAdmitCorpus commits the hellos as FuzzAdmitImperfect's corpus, one
// argument per field in the go test fuzz format.
func writeAdmitCorpus(t *testing.T, hellos []ImperfectHello) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAdmitImperfect")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, ih := range hellos {
		body := strings.Join([]string{"go test fuzz v1",
			fmt.Sprintf("uint64(%d)", ih.Seed), fmt.Sprintf("float64(%v)", ih.Target),
			fmt.Sprintf("int(%d)", ih.ExplorationRounds), fmt.Sprintf("int(%d)", ih.ReplaySteps),
			fmt.Sprintf("string(%q)", ih.ClientID), fmt.Sprintf("int(%d)", ih.ResumeRound),
		}, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzAdmitImperfect feeds arbitrary imperfect hellos to a clear server
// whose checkpoint book holds one valid checkpoint. Every hello is either
// admitted or refused with an error — never a panic, and never both or
// neither.
func FuzzAdmitImperfect(f *testing.F) {
	srv, _ := admitServer(f)
	f.Fuzz(func(t *testing.T, seed uint64, target float64, exploration, replay int, clientID string, resumeRound int) {
		sess, err := srv.AdmitImperfect(&ImperfectHello{
			Seed: seed, Target: target, ExplorationRounds: exploration, ReplaySteps: replay,
			ClientID: clientID, ResumeRound: resumeRound,
		})
		if (sess == nil) == (err == nil) {
			t.Fatalf("AdmitImperfect returned session %v and error %v; want exactly one", sess, err)
		}
	})
}

// TestAdmitImperfectRefusesForeignCheckpoint: a resume whose checkpoint
// names a feature outside the server's catalog is refused at admission with
// core.ErrCheckpointCatalog — the client starts fresh — instead of
// restoring a seller whose next settlement would panic in its session
// goroutine.
func TestAdmitImperfectRefusesForeignCheckpoint(t *testing.T) {
	srv, ih := admitServer(t)
	if _, err := srv.AdmitImperfect(&ih); err != nil {
		t.Fatalf("valid resume refused: %v", err)
	}
	ck, _ := srv.Checkpoints.Load(admitIdentity)
	bad := *ck
	bad.History = append([]core.BundleSample{{Features: []int{99}, Gain: 0.1}}, ck.History...)
	srv.Checkpoints.Save(admitIdentity, &bad)
	if _, err := srv.AdmitImperfect(&ih); !errors.Is(err, core.ErrCheckpointCatalog) || !strings.Contains(err.Error(), "start fresh") {
		t.Fatalf("foreign checkpoint: err = %v, want a start-fresh ErrCheckpointCatalog refusal", err)
	}
}
