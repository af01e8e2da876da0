package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	vflmarket "repro"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(1, 100, 2*time.Second, shards)
	if !reflect.DeepEqual(a, schedule(1, 100, 2*time.Second, shards)) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(2, 100, 2*time.Second, shards)) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) < 150 || len(a) > 250 {
		t.Fatalf("%d arrivals in 2 s at 100/s", len(a))
	}
	for i, x := range a {
		if x.Index != i || x.Seed == 0 || x.Shard < 0 || x.Shard >= shards || (i > 0 && x.At < a[i-1].At) {
			t.Fatalf("bad arrival %d: %+v", i, x)
		}
	}
}

// TestOpenLoopTimesFromIntendedSend stalls one session for 100 ms with one
// worker: the arrivals queued behind it must carry the stall in their
// latencies, because latency runs from the intended send time.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	var arrivals []arrival
	for i := range 20 {
		arrivals = append(arrivals, arrival{Index: i, At: time.Duration(i) * 10 * time.Millisecond, Seed: 1})
	}
	outs := runOpenLoop(context.Background(), arrivals, 1, func(_ context.Context, a arrival) (any, error) {
		if a.Index == 2 {
			time.Sleep(100 * time.Millisecond)
		} else {
			time.Sleep(time.Millisecond)
		}
		return a.Index, nil
	})
	if outs[0].Latency > 50*time.Millisecond || outs[1].Latency > 50*time.Millisecond {
		t.Fatalf("sessions before the stall took %v and %v", outs[0].Latency, outs[1].Latency)
	}
	// Arrival 3 is due at 30 ms and cannot start before the stall ends at
	// ~120 ms.
	for i := 3; i < 8; i++ {
		if outs[i].Latency < 50*time.Millisecond {
			t.Fatalf("arrival %d queued behind the stall reports %v", i, outs[i].Latency)
		}
	}
	for i, o := range outs {
		if o.Result != i || o.Err != nil {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
}

func TestPooledPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if m := median(xs); m != 500.5 {
		t.Fatalf("median %v, want 500.5", m)
	}
	p99, err := tailQuantile(xs, 0.99, minTail)
	if err != nil || math.Abs(p99-990.01) > 1e-9 {
		t.Fatalf("p99 %v, %v; want 990.01", p99, err)
	}
	if _, err := tailQuantile(xs[:999], 0.99, minTail); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) was reported")
	}

	subs := []subRun{
		{Attempted: 600, Completed: 600, OK: 590, CPUMs: 600, Mallocs: 6000, SetupS: 1, RSSMB: 20, LatMs: xs[:600]},
		{Attempted: 400, Completed: 399, Failed: 1, OK: 390, CPUMs: 399, Mallocs: 3990, SetupS: 3, RSSMB: 30, LatMs: xs[600:]},
	}
	v, err := endToEndValues(subs, minTail)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"p50_ms": 500.5, "p99_ms": 990.01, "ok_ratio": 0.98, "error_ratio": 0.001,
		"cpu_ms_per_session": 1, "allocs_per_session": 10, "setup_s": 2, "rss_peak_mb": 25,
	}
	for k, x := range want {
		if math.Abs(v[k]-x) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, v[k], x)
		}
	}
	if len(v) != len(want) {
		t.Errorf("pooled metrics %v, want %v", v, want)
	}
	v, err = endToEndValues(subs[1:], minTail)
	if err != nil {
		t.Fatal(err)
	}
	if p99, ok := v["p99_ms"]; ok {
		t.Fatalf("p99 of 400 samples reported as %v", p99)
	}
}

func TestDiffVerdicts(t *testing.T) {
	p50 := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	ok := metricSpec{Name: "ok_ratio", Better: "higher", Bound: 0.02}
	for _, tc := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{p50, []float64{10, 10.2, 10.1}, []float64{10.3, 10.1, 10.4}, "same"},
		{p50, []float64{10, 10.2, 10.1}, []float64{12, 12.1, 11.9}, "worse"},
		{p50, []float64{10, 10.2, 10.1}, []float64{8, 8.1, 7.9}, "better"},
		// Wide, interleaved runs cannot resolve a 15% move.
		{p50, []float64{8, 10, 13}, []float64{9, 11.5, 15}, "unresolved"},
		// Wide runs that separate completely still resolve.
		{p50, []float64{8, 9, 10}, []float64{11, 12, 14}, "worse"},
		{ok, []float64{1, 1, 1}, []float64{0.9, 0.91, 0.92}, "worse"},
		{errorRatio, []float64{0, 0, 0}, []float64{0, 0.001, 0}, "unresolved"},
		{errorRatio, []float64{0, 0, 0}, []float64{0.001, 0.001, 0.002}, "worse"},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		rf := resultFile{Workloads: map[string]*workloadResult{
			"perfect": {Metrics: map[string]float64{"p50_ms": p50, "ok_ratio": 1, "error_ratio": 0}},
		}}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a1.json", 4) + "," + write("a2.json", 4.1)
	same := write("b1.json", 4.05) + "," + write("b2.json", 4.1)
	slow := write("c1.json", 6) + "," + write("c2.json", 6.2)
	var out bytes.Buffer
	if worse, err := diff(&out, a, same); err != nil || worse {
		t.Fatalf("diff of equal sides: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := diff(&out, a, slow)
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Fatalf("diff of a slower side: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "perfect", "--trace", "0", "-seed", "3", "-trace", "-diff", "a", "b"}, "trace", "diff")
	want := []string{"--workload", "perfect", "--trace=0", "-seed", "3", "-trace", "-diff", "a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestSmokeEveryWorkload drives each workload for about twenty sessions on
// a small synthetic market through the real stack, measured and traced, with
// verification on.
func TestSmokeEveryWorkload(t *testing.T) {
	small := func() (*vflmarket.Engine, error) {
		return vflmarket.NewEngine(marketName, vflmarket.WithSynthetic(true), vflmarket.WithScale(0.25), vflmarket.WithSeed(11))
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			d := time.Duration(20 / w.Rate * float64(time.Second))
			sub, err := runJob(ctx, job{Workload: w.Name, Seed: 7, Seconds: d, Warmup: d / 4}, small, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if sub.Failed != 0 || sub.Attempted < 5 || sub.Completed != sub.Attempted {
				t.Fatalf("measured sub-run: %+v", sub)
			}
			v, err := endToEndValues([]subRun{sub}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range allEndToEnd() {
				if _, ok := v[m.Name]; !ok {
					t.Errorf("no %s", m.Name)
				}
			}
			if v["p50_ms"] <= 0 || v["setup_s"] <= 0 || v["rss_peak_mb"] <= 0 || v["allocs_per_session"] <= 0 {
				t.Errorf("zero end-to-end metric: %v", v)
			}

			traced, err := runJob(ctx, job{Workload: w.Name, Seed: 7, Seconds: d, Warmup: d / 4, Trace: true}, small, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced sub-run failed: %v", traced.Errors)
			}
			sum := 0.0
			for _, m := range perLayer {
				x, ok := traced.Layers[m.Name]
				if !ok {
					t.Errorf("no %s", m.Name)
				}
				// Every timing is measured on every workload, so none reads
				// a constant 0.
				if (m.Unit == "s" || m.Unit == "ms" || m.Unit == "us") && x <= 0 {
					t.Errorf("%s = %v", m.Name, x)
				}
				if m.Unit == "share" {
					sum += x
				}
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("ledger shares sum to %v", sum)
			}
			if traced.Layers["core.rounds"] <= 0 || traced.Layers["wire.recvs"] <= 0 {
				t.Errorf("traced layers empty: %v", traced.Layers)
			}
		})
	}
}

// TestBenchmarkJSONMirrorsSpecs keeps BENCHMARK.json at the repository root
// in step with the metric and workload tables here.
func TestBenchmarkJSONMirrorsSpecs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code %d, %d and %d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, got, m)
		}
	}
}
