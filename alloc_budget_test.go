//go:build !race

// The race detector adds allocations of its own, so the budgets below only
// hold, and this file only builds, without -race.

package vflmarket

import "testing"

// TestAllocationBudgets holds two hot paths to committed allocs/op budgets.
// Each budget is the measured value plus about half the rounds one session
// plays, so runner noise fits under it and one accidental allocation per
// round does not: that adds a whole round count.
//
//   - BenchmarkServiceRoundTrip/bin, 400: one networked perfect session
//     over the binary mux wire, measured at ~349 (345–366 across b.N);
//     its sessions settle ~95 rounds, so one more allocation a round
//     reads ~444.
//   - BenchmarkImperfectBargain, 305: one estimation-based game, measured
//     at 284 for every b.N; its sessions settle ~41 rounds (one more
//     allocation a round reads 325), and a per-candidate allocation (100
//     candidates a round) adds thousands.
func TestAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two benchmarks for about a second each")
	}
	for _, c := range []struct {
		name   string
		bench  func(*testing.B)
		budget int64
	}{
		// bin is BenchmarkServiceRoundTrip's only sub-benchmark, so the
		// aggregate testing.Benchmark returns is bin's own allocs/op.
		{"BenchmarkServiceRoundTrip/bin", BenchmarkServiceRoundTrip, 400},
		{"BenchmarkImperfectBargain", BenchmarkImperfectBargain, 305},
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
