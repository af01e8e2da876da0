// Command loadgen is the repository's benchmark: it sends seeded open-loop
// bargaining sessions to an in-process market server (a two-shard cluster
// for the churn workload) and reports latency, CPU, allocation, set-up and
// memory metrics per workload, or, traced, a per-layer ledger of where a
// session's time goes.
//
// Every sub-run runs in a fresh child process (the binary re-executes
// itself): set up the market, server and client; run one second of the
// schedule unmeasured; run the measured sub-run; verify the outputs outside
// the timed window.
//
// Usage, from the repository root:
//
//	sh cmd/loadgen/bench.sh [-seed N] [-seconds S]        all workloads, 4 rotating rounds
//	sh cmd/loadgen/bench.sh -trace                         per-layer ledger of every workload
//	sh cmd/loadgen/bench.sh --workload W --seed N --seconds S --trace 0|1
//	                                                       one workload; the last line is JSON
//	sh cmd/loadgen/bench.sh -diff A1.json,A2.json B1.json,B2.json
//
// or `go run .` from cmd/loadgen with the same flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
)

// procStart approximates the process start for set-up time.
var procStart = time.Now()

const (
	// contractSubRuns is how many child processes one --workload run splits
	// its measured seconds across.
	contractSubRuns = 3
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
	// warmup is the unmeasured run before each measured sub-run.
	warmup = time.Second
	// maxLateMs and a busy refusal mark a sub-run invalid: the generator fell
	// behind its schedule, or the server shed load, so the latencies do not
	// measure the offered rate.
	maxLateMs = 5
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	diff     bool
	child    bool
}

func main() {
	var o options
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (perfect, imperfect, secure, churn) and print a JSON result last")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the arrival schedules and session seeds")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload, split across its sub-runs")
	fs.BoolVar(&o.trace, "trace", false, "trace: per-layer metrics and the session ledger instead of end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "write the result JSON here (all-workload runs default to loadgen-result.json)")
	fs.BoolVar(&o.diff, "diff", false, "compare result files: -diff A1.json[,A2.json...] B1.json[,B2.json...]")
	fs.BoolVar(&o.child, "child", false, "internal: run one sub-run and print it as JSON")
	_ = fs.Parse(boolArgs(os.Args[1:], "trace", "diff", "child"))

	ctx := context.Background()
	var err error
	code := 0
	switch {
	case o.diff:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-diff needs two comma-separated lists of result files")
			break
		}
		var worse bool
		if worse, err = diff(os.Stdout, fs.Arg(0), fs.Arg(1)); worse {
			code = 1
		}
	case o.child:
		err = child(ctx, o)
	case o.workload != "":
		code, err = runOne(ctx, o)
	default:
		code, err = runAll(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// boolArgs joins a boolean flag and a following 0/1/true/false argument, so
// that "--trace 0" means -trace=0 rather than -trace plus a stray "0".
func boolArgs(args []string, names ...string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		name := strings.TrimLeft(a, "-")
		isBool := false
		for _, n := range names {
			isBool = isBool || (name == n && strings.HasPrefix(a, "-"))
		}
		if isBool && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// child runs one sub-run in this process and prints it as one JSON line.
func child(ctx context.Context, o options) error {
	sub, err := runJob(ctx, job{
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  seconds(o.seconds),
		Warmup:   warmup,
		Trace:    o.trace,
	}, paperMarket, procStart)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(sub)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runChild runs one job in a fresh child process.
func runChild(ctx context.Context, o options, j job) (subRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return subRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", j.Workload,
		"-seed", strconv.FormatUint(j.Seed, 10),
		"-seconds", strconv.FormatFloat(j.Seconds.Seconds(), 'g', -1, 64),
		"-trace="+strconv.FormatBool(j.Trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return subRun{}, fmt.Errorf("%s sub-run (seed %d): %w", j.Workload, j.Seed, err)
	}
	var sub subRun
	if err := json.Unmarshal(out.Bytes(), &sub); err != nil {
		return subRun{}, fmt.Errorf("%s sub-run (seed %d): bad report: %w", j.Workload, j.Seed, err)
	}
	return sub, nil
}

func valid(s subRun) bool { return s.LateP99Ms <= maxLateMs && s.Busy == 0 }

// measure runs one measured sub-run, repeating it once if it was invalid.
func measure(ctx context.Context, o options, j job) (subRun, error) {
	sub, err := runChild(ctx, o, j)
	if err != nil || valid(sub) {
		return sub, err
	}
	fmt.Fprintf(os.Stderr, "loadgen: %s sub-run (seed %d) invalid (late p99 %.2f ms, %d busy); running it again\n",
		j.Workload, j.Seed, sub.LateP99Ms, sub.Busy)
	if sub, err = runChild(ctx, o, j); err != nil {
		return sub, err
	}
	sub.Reruns = 1
	sub.Invalid = !valid(sub)
	return sub, nil
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	SubRuns []subRun           `json:"subruns"`
}

// resultFile is what a run writes for -diff.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type provenance struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Revision   string   `json:"vcs_revision"`
	Modified   bool     `json:"vcs_modified"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Args       []string `json:"args"`
}

func newProvenance(o options) provenance {
	p := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Args: os.Args[1:],
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// finish pools a workload's measured sub-runs into its result, keeping each
// sub-run's own values and dropping the raw samples.
func finish(subs []subRun) (*workloadResult, error) {
	vals, err := endToEndValues(subs, minTail)
	if err != nil {
		return nil, err
	}
	for i := range subs {
		if subs[i].Metrics, err = endToEndValues(subs[i:i+1], 0); err != nil {
			return nil, err
		}
		subs[i].LatMs = nil
	}
	return &workloadResult{Metrics: vals, SubRuns: subs}, nil
}

// traced runs one workload's traced child, an untraced and a traced pass over
// half the measured seconds, and prints its ledger.
func traced(ctx context.Context, o options, name string) (*workloadResult, error) {
	sub, err := runChild(ctx, o, job{Workload: name, Seed: rng.DeriveSeed(o.seed, 0), Seconds: seconds(o.seconds / 2), Trace: true})
	if err != nil {
		return nil, err
	}
	sub.LatMs = nil
	printLedger(os.Stdout, name, sub)
	return &workloadResult{Layers: sub.Layers, SubRuns: []subRun{sub}}, nil
}

// runOne is the benchmark-contract mode: one workload, its metrics printed as
// a table and then as one JSON object on the last line.
func runOne(ctx context.Context, o options) (int, error) {
	if _, err := workloadByName(o.workload); err != nil {
		return 0, err
	}
	rf := resultFile{Provenance: newProvenance(o), Workloads: map[string]*workloadResult{}}
	var wr *workloadResult
	var specs []metricSpec
	var values map[string]float64
	if o.trace {
		var err error
		if wr, err = traced(ctx, o, o.workload); err != nil {
			return 0, err
		}
		specs, values = perLayer, wr.Layers
	} else {
		var subs []subRun
		for i := range contractSubRuns {
			sub, err := measure(ctx, o, job{Workload: o.workload, Seed: rng.DeriveSeed(o.seed, uint64(i)), Seconds: seconds(o.seconds / contractSubRuns)})
			if err != nil {
				return 0, err
			}
			subs = append(subs, sub)
		}
		var err error
		if wr, err = finish(subs); err != nil {
			return 0, fmt.Errorf("%s: %w", o.workload, err)
		}
		specs, values = endToEnd, wr.Metrics
		printMetrics(os.Stdout, o.workload, wr)
	}
	rf.Workloads[o.workload] = wr
	if err := writeResult(o.out, rf); err != nil {
		return 0, err
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, s := range wr.SubRuns {
		line.Attempted += s.Attempted
		line.Failed += s.Failed
	}
	line.Correct = line.Failed == 0
	for _, m := range specs {
		line.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// runAll runs every workload. Measured: four rounds, each running all four
// workloads in a rotated order so each workload takes each slot once, which
// spreads slow phases of the host across all of them. Traced: one traced
// child per workload.
func runAll(ctx context.Context, o options) (int, error) {
	if o.out == "" {
		o.out = "loadgen-result.json"
	}
	rf := resultFile{Provenance: newProvenance(o), Workloads: map[string]*workloadResult{}}
	failed := 0
	if o.trace {
		for _, w := range workloads {
			wr, err := traced(ctx, o, w.Name)
			if err != nil {
				return 0, err
			}
			failed += wr.SubRuns[0].Failed
			rf.Workloads[w.Name] = wr
		}
	} else {
		rounds := len(workloads)
		subs := map[string][]subRun{}
		for r := range rounds {
			for slot := range workloads {
				w := workloads[(r+slot)%len(workloads)]
				sub, err := measure(ctx, o, job{Workload: w.Name, Seed: rng.DeriveSeed(o.seed, uint64(r)), Seconds: seconds(o.seconds / float64(rounds))})
				if err != nil {
					return 0, err
				}
				subs[w.Name] = append(subs[w.Name], sub)
				failed += sub.Failed
			}
		}
		for _, w := range workloads {
			wr, err := finish(subs[w.Name])
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.Name, err)
			}
			rf.Workloads[w.Name] = wr
			printMetrics(os.Stdout, w.Name, wr)
		}
	}
	if err := writeResult(o.out, rf); err != nil {
		return 0, err
	}
	fmt.Printf("wrote %s\n", o.out)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d sessions failed\n", failed)
		return 1, nil
	}
	return 0, nil
}

func writeResult(path string, rf resultFile) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics prints a workload's end-to-end metrics with the min–max of
// its sub-runs' own values.
func printMetrics(w io.Writer, name string, wr *workloadResult) {
	samples, invalid := 0, 0
	for _, s := range wr.SubRuns {
		samples += s.Attempted
		if s.Invalid {
			invalid++
		}
	}
	fmt.Fprintf(w, "%s: %d sessions in %d sub-runs", name, samples, len(wr.SubRuns))
	if invalid > 0 {
		fmt.Fprintf(w, " (%d invalid)", invalid)
	}
	fmt.Fprintln(w)
	for _, m := range allEndToEnd() {
		v, ok := wr.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-20s %12s %-6s needs %d samples beyond it\n", m.Name, "n/a", m.Unit, minTail)
			continue
		}
		var per []float64
		for _, s := range wr.SubRuns {
			if x, ok := s.Metrics[m.Name]; ok {
				per = append(per, x)
			}
		}
		fmt.Fprintf(w, "  %-20s %12.4f %-6s sub-runs %s\n", m.Name, v, m.Unit, rangeOf(per))
	}
	for _, s := range wr.SubRuns {
		for _, e := range s.Errors {
			fmt.Fprintf(w, "  failure: %s\n", e)
		}
	}
}

// printLedger prints a traced workload's session ledger and its per-layer
// metrics.
func printLedger(w io.Writer, name string, sub subRun) {
	L := sub.Layers
	parts := []string{"client_core", "client_wire", "server_core", "server_net", "residual"}
	sum := 0.0
	fmt.Fprintf(w, "%s ledger (share of the traced session's mean wall time, %.3f ms):", name, L["ledger.wall_us"]/1000)
	for _, p := range parts {
		sum += L["ledger."+p]
		fmt.Fprintf(w, " %s %.3f", p, L["ledger."+p])
	}
	fmt.Fprintf(w, " = %.3f\n", sum)
	fmt.Fprintf(w, "  trace overhead %+.1f%% of untraced p50; traced results equal untraced ones: %v (%d sessions, %d failed)\n",
		100*L["ledger.trace_overhead"], sub.Failed == 0, sub.Attempted, sub.Failed)
	names := make([]string, 0, len(L))
	for k := range L {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %12.4f\n", k, L[k])
	}
	for _, e := range sub.Errors {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
}
