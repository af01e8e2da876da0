//go:build !race

// The race detector adds allocations of its own, so the budgets below only
// hold, and this file only builds, without -race.

package vflmarket

import (
	crand "crypto/rand"
	"testing"

	"repro/internal/secure"
)

// TestAllocationBudgets holds five hot paths to committed allocs/op
// budgets. Each session budget is the measured value plus about half the
// rounds one session plays, so runner noise fits under it and one
// accidental allocation per round does not: that adds a whole round count.
// testing.Benchmark reports its last, largest b.N; the first run, at
// b.N = 1, reads higher, because its one session fills the pools and
// caches the later sessions draw from.
//
//   - BenchmarkServiceRoundTrip/bin, 70: one networked perfect session
//     over the binary mux wire, measured at 22 (57–58 at b.N = 1); its
//     sessions settle ~95 rounds, so one more allocation a round reads
//     ~117. Every per-round envelope decodes into its session's box: a
//     build that decodes them onto the heap again adds three allocations
//     a round and reads ~304. A session grows its rounds in a pooled
//     scratch and keeps one exact copy, the server reuses one Hello per
//     market and one send scratch per session, and the client decodes a
//     repeated Hello once per connection: a build that grows the rounds
//     by doubling again reads 30.
//   - BenchmarkImperfectServiceRoundTrip/bin, 115: one networked
//     estimation-based session without an identity, measured at 90–94
//     (~250 at b.N = 1, whose session finds the estimator pools cold and
//     builds both estimators); its sessions settle ~41 rounds, so one more
//     allocation a round reads ~133. Each session re-seeds a pooled price
//     estimator on the client and a pooled bundle estimator on the server:
//     a build that never recycles them reads ~230, one whose server never
//     releases its seller's estimator ~161, and a session that
//     checkpointed every round although it can never resume adds ~1 350.
//   - BenchmarkImperfectBargain, 80: one estimation-based game, measured
//     at 60–61 (~210 at b.N = 1, whose estimator pools are cold); its
//     sessions settle ~41 rounds (one more allocation a round reads ~102).
//     A game that builds its two estimators instead of recycling them
//     reads ~202, one that grows its rounds by doubling 68, and a
//     per-candidate allocation (100 candidates a round) adds thousands.
//   - BenchmarkSecureSettlement/secure-pooled, 90: one secure settlement
//     round at 256-bit primes, a seal drawn from a primed pool plus one
//     blinded open, measured at 76. A full-width r^n mod n² factor costs
//     ~38 allocations, so a round that computes one anywhere (an open
//     that blinds with a pool factor, or a seal that misses the pool)
//     reads ~113.
//   - BenchmarkSecureServiceRoundTrip/bin, 145: one networked secure
//     perfect session at 256-bit primes, client pool primed, measured at
//     138 (138–154 at b.N = 1); its sessions settle ~12 rounds and seal
//     and open only the closing one, under the pool's own key when the
//     Hello announces its modulus. A client that seals every round again
//     adds ~47 allocations a round (~530 a session); a server that also
//     opens every round adds ~70 more a round.
func TestAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five benchmarks for about a second each")
	}
	sk, err := secure.GenerateKey(crand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	recv := secure.NewDataReceiver(sk)
	for _, c := range []struct {
		name   string
		bench  func(*testing.B)
		budget int64
	}{
		// bin is each service benchmark's only sub-benchmark, so the
		// aggregate testing.Benchmark returns is bin's own allocs/op.
		{"BenchmarkServiceRoundTrip/bin", BenchmarkServiceRoundTrip, 70},
		{"BenchmarkImperfectServiceRoundTrip/bin", BenchmarkImperfectServiceRoundTrip, 115},
		{"BenchmarkImperfectBargain", BenchmarkImperfectBargain, 80},
		{"BenchmarkSecureSettlement/secure-pooled", func(b *testing.B) { benchSecurePooled(b, recv, 2.54) }, 90},
		{"BenchmarkSecureServiceRoundTrip/bin", BenchmarkSecureServiceRoundTrip, 145},
	} {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Fatalf("%s failed", c.name)
		}
		allocs := r.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("%s: %d allocs/op, over its budget of %d", c.name, allocs, c.budget)
		}
	}
}
