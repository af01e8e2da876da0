//go:build !race

// The race detector adds allocations of its own, so the budgets below only
// hold, and this file only builds, without -race.

package vflmarket

import "testing"

// TestAllocationBudgets holds two hot paths to committed allocs/op budgets,
// each about 1.5x its measured value: room for runner noise, none for an
// accidental per-round allocation.
//
//   - BenchmarkServiceRoundTrip/bin, 1800: one networked perfect session
//     over the binary mux wire (~75 rounds), measured at ~1 200.
//   - BenchmarkImperfectBargain, 450: one estimation-based game, measured at
//     ~284; a per-round or per-candidate allocation (40 rounds × 100
//     candidates) adds thousands.
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
		{"BenchmarkServiceRoundTrip/bin", BenchmarkServiceRoundTrip, 1800},
		{"BenchmarkImperfectBargain", BenchmarkImperfectBargain, 450},
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
