//go:build !race

// The race detector adds allocations of its own, so the budgets below only
// hold, and this file only builds, without -race.

package vflmarket

import (
	crand "crypto/rand"
	"testing"

	"repro/internal/secure"
)

// TestAllocationBudgets holds four hot paths to committed allocs/op
// budgets. Each session budget is the measured value plus about half the
// rounds one session plays, so runner noise fits under it and one
// accidental allocation per round does not: that adds a whole round count.
//
//   - BenchmarkServiceRoundTrip/bin, 400: one networked perfect session
//     over the binary mux wire, measured at ~349 (345–366 across b.N);
//     its sessions settle ~95 rounds, so one more allocation a round
//     reads ~444.
//   - BenchmarkImperfectServiceRoundTrip/bin, 570: one networked
//     estimation-based session without an identity, measured at ~547
//     (569 at b.N = 1, whose one session is the longest); its sessions
//     settle ~41 rounds, so one more allocation a round reads ~588. A
//     session that checkpointed every round although it can never resume
//     reads ~1 900.
//   - BenchmarkImperfectBargain, 260: one estimation-based game, measured
//     at 240 for every b.N; its sessions settle ~41 rounds (one more
//     allocation a round reads 281), and a per-candidate allocation (100
//     candidates a round) adds thousands.
//   - BenchmarkSecureSettlement/secure-pooled, 90: one secure settlement
//     round at 256-bit primes, a seal drawn from a primed pool plus one
//     blinded open, measured at 75. A full-width r^n mod n² factor costs
//     ~38 allocations, so a round that computes one anywhere (an open
//     that blinds with a pool factor, or a seal that misses the pool)
//     reads ~113.
func TestAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four benchmarks for about a second each")
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
		{"BenchmarkServiceRoundTrip/bin", BenchmarkServiceRoundTrip, 400},
		{"BenchmarkImperfectServiceRoundTrip/bin", BenchmarkImperfectServiceRoundTrip, 570},
		{"BenchmarkImperfectBargain", BenchmarkImperfectBargain, 260},
		{"BenchmarkSecureSettlement/secure-pooled", func(b *testing.B) { benchSecurePooled(b, recv, 2.54) }, 90},
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
