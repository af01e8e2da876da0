package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root mirrors these tables; a test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how far the median may worsen before a change counts as a
	// regression: a share of the baseline median, or an absolute difference
	// when Abs is set. End-to-end metrics only.
	Bound float64
	Abs   bool
}

// endToEnd are the metrics a user of the market sees, reported per workload
// with tracing off. Their run-to-run spread on a shared two-core host stays
// well inside these bounds; the tail sits in ok_ratio, the share of sessions
// within the workload's latency limit.
var endToEnd = []metricSpec{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "cpu_ms_per_session", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_session", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// reported are printed, recorded and diffed with the end-to-end metrics but
// are not benchmark metrics. p99_ms moved by up to a quarter between runs of
// one seed on the shared host, wider than any bound a regression gate can
// use, so -diff mostly calls it unresolved; it is omitted when fewer than
// minTail samples lie beyond it. error_ratio must read 0 on every healthy
// run, and any rise is a regression.
var reported = []metricSpec{
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	errorRatio,
}

var errorRatio = metricSpec{Name: "error_ratio", Unit: "ratio", Better: "lower", Bound: 0, Abs: true}

// allEndToEnd is endToEnd followed by reported.
func allEndToEnd() []metricSpec { return append(append([]metricSpec(nil), endToEnd...), reported...) }

// perLayer are the per-layer metrics of a traced run, each measured from
// outside the layer it names.
var perLayer = []metricSpec{
	{Name: "vflmarket.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vflmarket.busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vflmarket.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "vflmarket.close_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.redirect_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vfl.trainings", Unit: "count", Better: "lower"},
	{Name: "vfl.build_s", Unit: "s", Better: "lower"},
	{Name: "secure.keygen_s", Unit: "s", Better: "lower"},
	{Name: "secure.seal_us", Unit: "us", Better: "lower"},
	{Name: "secure.open_us", Unit: "us", Better: "lower"},
	{Name: "secure.noise_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "secure.noise_produced", Unit: "count", Better: "lower"},
	{Name: "wire.open_us", Unit: "us", Better: "lower"},
	{Name: "wire.sends", Unit: "count", Better: "lower"},
	{Name: "wire.send_us", Unit: "us", Better: "lower"},
	{Name: "wire.flushes", Unit: "count", Better: "lower"},
	{Name: "wire.flush_us", Unit: "us", Better: "lower"},
	{Name: "wire.recvs", Unit: "count", Better: "lower"},
	{Name: "wire.recv_wait_us", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_out", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_in", Unit: "B", Better: "lower"},
	{Name: "wire.writes", Unit: "count", Better: "lower"},
	{Name: "wire.reads", Unit: "count", Better: "lower"},
	{Name: "wire.server_writes", Unit: "count", Better: "lower"},
	{Name: "wire.server_write_us", Unit: "us", Better: "lower"},
	{Name: "wire.server_reads", Unit: "count", Better: "lower"},
	{Name: "wire.server_read_us", Unit: "us", Better: "lower"},
	{Name: "wire.server_turnaround_us", Unit: "us", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.session_us", Unit: "us", Better: "lower"},
	{Name: "core.buyer_us", Unit: "us", Better: "lower"},
	{Name: "core.offer_us", Unit: "us", Better: "lower"},
	{Name: "core.settle_us", Unit: "us", Better: "lower"},
	{Name: "core.gain_calls", Unit: "count", Better: "lower"},
	{Name: "core.gain_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_per_session", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.wall_us", Unit: "us", Better: "lower"},
	{Name: "ledger.client_core", Unit: "share", Better: "lower"},
	{Name: "ledger.client_wire", Unit: "share", Better: "lower"},
	{Name: "ledger.server_core", Unit: "share", Better: "lower"},
	{Name: "ledger.server_net", Unit: "share", Better: "lower"},
	{Name: "ledger.residual", Unit: "share", Better: "lower"},
	{Name: "ledger.trace_overhead", Unit: "ratio", Better: "lower"},
}

// subRun is one child process's measured sub-run, as it reports it to the
// parent and as result files record it.
type subRun struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Attempted int    `json:"attempted"`
	// Completed sessions returned a result; Failed ones errored or failed
	// verification; OK ones also finished within the workload's limit.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	OK        int `json:"ok"`
	// LatMs holds every session latency; the parent pools and then drops
	// them.
	LatMs     []float64 `json:"lat_ms,omitempty"`
	LateP99Ms float64   `json:"late_p99_ms"`
	CPUMs     float64   `json:"cpu_ms"`
	Mallocs   uint64    `json:"mallocs"`
	SetupS    float64   `json:"setup_s"`
	RSSMB     float64   `json:"rss_peak_mb"`
	Busy      uint64    `json:"busy"`
	// Invalid marks a sub-run whose generator ran late or which met a busy
	// refusal twice in a row; Reruns counts the repeats it took.
	Invalid bool `json:"invalid,omitempty"`
	Reruns  int  `json:"reruns,omitempty"`
	// Layers are the per-layer metrics of a traced sub-run.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Metrics are this sub-run's own end-to-end values.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Errors  []string           `json:"errors,omitempty"`
}

// quantile returns the q-quantile of sorted samples, interpolating linearly
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailQuantile is quantile for a tail percentile: it refuses to report one
// with fewer than minBeyond samples above it, since that value would rest on
// a handful of sessions.
func tailQuantile(xs []float64, q float64, minBeyond int) (float64, error) {
	beyond := int(math.Floor(float64(len(xs))*(1-q) + 1e-9))
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d", q*100, minBeyond, len(xs), beyond)
	}
	return quantile(sortedCopy(xs), q), nil
}

// ratio is a/b, 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minTail is how many samples a reported p99 needs above it.
const minTail = 10

// endToEndValues pools the sub-runs of one workload into its end-to-end and
// reported metrics. Latencies are pooled across sub-runs; set-up time and
// peak memory are medians over the child processes. p99_ms is left out when
// fewer than minBeyond samples lie beyond it.
func endToEndValues(subs []subRun, minBeyond int) (map[string]float64, error) {
	var lat, setup, rss []float64
	var attempted, completed, failed, ok int
	var cpu, mallocs float64
	for _, s := range subs {
		lat = append(lat, s.LatMs...)
		setup = append(setup, s.SetupS)
		rss = append(rss, s.RSSMB)
		attempted += s.Attempted
		completed += s.Completed
		failed += s.Failed
		ok += s.OK
		cpu += s.CPUMs
		mallocs += float64(s.Mallocs)
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no session was attempted")
	}
	v := map[string]float64{
		"p50_ms":             median(lat),
		"ok_ratio":           float64(ok) / float64(attempted),
		"error_ratio":        float64(failed) / float64(attempted),
		"cpu_ms_per_session": ratio(cpu, float64(completed)),
		"allocs_per_session": ratio(mallocs, float64(completed)),
		"setup_s":            median(setup),
		"rss_peak_mb":        median(rss),
	}
	if p99, err := tailQuantile(lat, 0.99, minBeyond); err == nil {
		v["p99_ms"] = p99
	}
	return v, nil
}
