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
//
//   - BenchmarkServiceRoundTrip/bin, 105: one networked perfect session
//     over the binary mux wire, measured at 58 (73 at b.N = 1); its
//     sessions settle ~95 rounds, so one more allocation a round reads
//     ~153. Every per-round envelope decodes into its session's box: a
//     build that decodes them onto the heap again adds three allocations
//     a round and reads ~340.
//   - BenchmarkImperfectServiceRoundTrip/bin, 315: one networked
//     estimation-based session without an identity, measured at 293
//     (301 at b.N = 1, whose one session is the longest); its sessions
//     settle ~41 rounds, so one more allocation a round reads ~334. A
//     session that checkpointed every round although it can never resume
//     adds ~1 350.
//   - BenchmarkImperfectBargain, 260: one estimation-based game, measured
//     at 241 for every b.N; its sessions settle ~41 rounds (one more
//     allocation a round reads 282), and a per-candidate allocation (100
//     candidates a round) adds thousands.
//   - BenchmarkSecureSettlement/secure-pooled, 90: one secure settlement
//     round at 256-bit primes, a seal drawn from a primed pool plus one
//     blinded open, measured at 75. A full-width r^n mod n² factor costs
//     ~38 allocations, so a round that computes one anywhere (an open
//     that blinds with a pool factor, or a seal that misses the pool)
//     reads ~113.
//   - BenchmarkSecureServiceRoundTrip/bin, 190: one networked secure
//     perfect session at 256-bit primes, client pool primed, measured at
//     ~182 (268 at b.N = 1, which primes the pool); its sessions settle
//     ~12 rounds and seal and open only the closing one. A client that
//     seals every round again adds ~47 allocations a round (~530 a
//     session); a server that also opens every round adds ~70 more a
//     round.
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
		{"BenchmarkServiceRoundTrip/bin", BenchmarkServiceRoundTrip, 105},
		{"BenchmarkImperfectServiceRoundTrip/bin", BenchmarkImperfectServiceRoundTrip, 315},
		{"BenchmarkImperfectBargain", BenchmarkImperfectBargain, 260},
		{"BenchmarkSecureSettlement/secure-pooled", func(b *testing.B) { benchSecurePooled(b, recv, 2.54) }, 90},
		{"BenchmarkSecureServiceRoundTrip/bin", BenchmarkSecureServiceRoundTrip, 190},
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
