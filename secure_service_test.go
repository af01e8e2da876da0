package vflmarket

// End-to-end tests of the pipelined secure regime: quantized-exact payment
// parity over the wire under every served codec (with and without the client's
// randomizer pool), the public batched secure settlement path, and the
// oracle flight metrics surfaced per market.

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/secure"
	"repro/internal/wire"
)

// quantize is the fixed-point resolution the secure regime settles at:
// Open(Seal(p)) = round(p·GainScale)/GainScale, exactly.
func quantize(p float64) float64 {
	return math.Round(p*secure.GainScale) / secure.GainScale
}

// TestSecureSettlementQuantizedParityOverWire is the wire golden: for the
// Client's bin codec and for the gob mux and serial JSON transports the
// server still serves, and for both the pooled and the inline client
// encryption paths,
// the payment the server decrypts must equal the client's cleartext
// payment quantized to the fixed-point grid — exactly, which pins the
// pooled-encrypt and CRT-decrypt rebuild to the pre-refactor settlement
// values bit for bit.
func TestSecureSettlementQuantizedParityOverWire(t *testing.T) {
	engines := testEngines(t)
	events := make(chan SessionEvent, 16)
	_, addr, shutdown := startServer(t, engines,
		WithSecureSettlement(128),
		WithEagerSecureKeys(),
		WithNoisePool(16),
		WithSessionHook(func(ev SessionEvent) {
			if ev.Summary != nil {
				events <- ev
			}
		}),
	)
	defer shutdown()

	engine := engines["titanic"]
	want, err := engine.Bargain(context.Background(), BargainOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want.Outcome != Success {
		t.Fatalf("in-process outcome = %v", want.Outcome)
	}
	wantPay := quantize(want.Final.Payment)

	for _, tc := range []struct {
		name  string
		codec string
		pool  int // WithClientNoisePool argument
	}{
		{"bin-pooled", wire.CodecBinary, 0},
		{"bin-inline", wire.CodecBinary, -1},
		{"gob-pooled", wire.CodecGob, 0},
		{"gob-inline", wire.CodecGob, -1},
		{"json-pooled", wire.CodecJSON, 0},
		{"json-inline", wire.CodecJSON, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *Result
			if tc.codec == wire.CodecBinary {
				client, err := Dial(context.Background(), addr,
					WithClientNoisePool(tc.pool),
					WithSession(engine.Session()),
					WithGains(engine.CatalogGains()),
				)
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				if res, err = client.Bargain(context.Background(), BargainOptions{Seed: 5}); err != nil {
					t.Fatal(err)
				}
			} else {
				// The gob mux and the serial JSON endpoint are served for
				// callers other than the Client; settle over them directly.
				rt, err := dialRawTransport(addr, tc.codec, "titanic", 1)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				cfg := engine.Session()
				cfg.Seed = 5
				if res, err = rt.bargain(context.Background(), cfg, engine.CatalogGains(), tc.pool); err != nil {
					t.Fatal(err)
				}
			}
			// The clear-side trace is bit-identical to the in-process run;
			// the gain never crossed the wire.
			if res.Final.Payment != want.Final.Payment || res.Final.BundleID != want.Final.BundleID {
				t.Fatalf("client trace diverged: %+v vs %+v", res.Final, want.Final)
			}
			var ev SessionEvent
			select {
			case ev = <-events:
			case <-time.After(5 * time.Second):
				t.Fatal("no session event")
			}
			if !ev.Summary.Closed {
				t.Fatal("server did not record the close")
			}
			if ev.Summary.Payment != wantPay {
				t.Fatalf("decrypted payment %v, want quantized %v (clear %v)",
					ev.Summary.Payment, wantPay, want.Final.Payment)
			}
		})
	}
}

// TestBargainBatchSecureMatchesClear runs the public batched secure path:
// identical traces to BargainBatch, payments quantized-exact, and the
// settlement's randomizer pool actually serving draws.
func TestBargainBatchSecureMatchesClear(t *testing.T) {
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSettlement(128, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}

	specs := make([]BatchSpec, 16)
	opts := BatchOptions{Workers: 4, Seed: 3}
	clear, err := engine.BargainBatch(context.Background(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := engine.BargainBatchSecure(context.Background(), specs, opts, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		w, g := clear[i], sec[i]
		if g.Outcome != w.Outcome || g.Final.BundleID != w.Final.BundleID || len(g.Rounds) != len(w.Rounds) {
			t.Fatalf("spec %d diverged: %v/%d/%d vs %v/%d/%d", i,
				w.Outcome, w.Final.BundleID, len(w.Rounds), g.Outcome, g.Final.BundleID, len(g.Rounds))
		}
		for r := range w.Rounds {
			if g.Rounds[r].Payment != quantize(w.Rounds[r].Payment) {
				t.Fatalf("spec %d round %d payment %v, want quantized %v",
					i, r, g.Rounds[r].Payment, quantize(w.Rounds[r].Payment))
			}
		}
	}
	if ns := st.NoiseStats(); ns.Pooled == 0 {
		t.Fatalf("primed settlement pool served no draws: %+v", ns)
	}
	if _, err := engine.BargainBatchSecure(context.Background(), specs, opts, nil); err == nil {
		t.Fatal("nil settlement accepted")
	}
}

// TestMarketMetricsSurfaceOracleFlightStats registers a real-gain engine
// and checks the singleflight counters flow through Server.MarketMetrics.
func TestMarketMetricsSurfaceOracleFlightStats(t *testing.T) {
	engine, err := NewEngine("titanic", WithModel("mlp"), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	om := engine.OracleMetrics()
	if om.Trainings == 0 || om.CachedGains == 0 {
		t.Fatalf("real-gain engine reports no oracle load: %+v", om)
	}
	// Catalog construction warms every bundle and then prices it through
	// the oracle again, so the memo must have served hits.
	if om.Hits == 0 {
		t.Fatalf("warmed catalog construction produced no memo hits: %+v", om)
	}

	srv := NewServer()
	if err := srv.Register("titanic", engine); err != nil {
		t.Fatal(err)
	}
	mm := srv.MarketMetrics()["titanic"]
	if mm.OracleTrainings != om.Trainings || mm.OracleCachedGains != om.CachedGains ||
		mm.OracleHits != om.Hits || mm.OracleCoalesced != om.Coalesced {
		t.Fatalf("MarketMetrics %+v does not mirror OracleMetrics %+v", mm, om)
	}
}
