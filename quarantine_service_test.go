package vflmarket

// Service-level quarantine test: corrupt snapshots found at boot are moved
// aside as .corrupt sidecars — visible to the operator in the logs and the
// Quarantined metric — instead of being left in place to race the next
// flush, and the server comes up cold and fully functional over them.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// TestServiceStateQuarantineCorruptSnapshots plants garbage where the
// store keeps an estimator checkpoint and a Paillier key, plus a correctly
// framed key record whose payload does not decode, boots a secure server
// over it, and asserts every one is quarantined (renamed to .corrupt,
// counted in ServerMetrics.Quarantined) while the server serves a clean
// session.
func TestServiceStateQuarantineCorruptSnapshots(t *testing.T) {
	dir := stateTestDir(t)
	planted := []struct {
		name   string
		framed bool // a valid frame around an undecodable payload
	}{
		{"estimators/titanic/buyer-q", false},
		{"keys/titanic", false},
		{"keys/credit", true},
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range planted {
		if pl.framed {
			if err := st.Save(pl.name, 1, []byte("not a gob key record")); err != nil {
				t.Fatal(err)
			}
			continue
		}
		p := st.Path(pl.name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("definitely not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ms, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The first checkpoint lookup hits the garbage, quarantines it, and
	// reports a clean miss.
	if _, ok := ms.book("titanic").Load("buyer-q"); ok {
		t.Fatal("corrupt checkpoint loaded as valid")
	}

	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	// Eager keys force the corrupt key records through their load at
	// Register.
	srv, addr, shutdown := startServer(t, map[string]*Engine{"titanic": engine, "credit": engine},
		WithMarketState(ms), WithSecureSettlement(128), WithEagerSecureKeys())
	defer shutdown()

	for _, pl := range planted {
		if _, err := os.Stat(st.Path(pl.name) + ".corrupt"); err != nil {
			t.Errorf("%s not quarantined: %v", pl.name, err)
		}
	}
	if m := srv.Metrics(); m.Quarantined != uint64(len(planted)) {
		t.Fatalf("ServerMetrics.Quarantined = %d, want %d", m.Quarantined, len(planted))
	}

	// The server is healthy over the quarantined directory: a fresh key
	// generated, a settled session completes.
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.Secure() {
		t.Fatal("server over a quarantined key record did not come up secure")
	}
	if _, err := client.Bargain(context.Background(), BargainOptions{Seed: 17}); err != nil {
		t.Fatalf("session after quarantine boot: %v", err)
	}
}
