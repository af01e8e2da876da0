package exp

// Paper-level goldens: every experiment runner's full result, at the shape
// tests' fast options, pinned bit for bit under testdata. A refactor or an
// optimisation that drifts one reproduced number by one ulp fails here, at
// one worker and at four.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vfl"
)

var updateGoldens = flag.Bool("update", false, "rewrite the experiment runner goldens under testdata")

// runnerGoldens names one golden per runner. Each run function takes the
// worker count, so the same golden is checked at every count.
func runnerGoldens() []struct {
	name string
	run  func(ctx context.Context, workers int) (any, error)
} {
	return []struct {
		name string
		run  func(ctx context.Context, workers int) (any, error)
	}{
		{"table3", func(ctx context.Context, workers int) (any, error) {
			opts := fastOpts()
			opts.Workers = workers
			return RunTable3(ctx, opts)
		}},
		{"table4", func(ctx context.Context, workers int) (any, error) {
			opts := Table4Options{
				Options:           fastOpts(),
				ExplorationRounds: 30,
				MaxRounds:         150,
				Models:            []vfl.BaseModel{vfl.RandomForest},
			}
			opts.Runs = 8
			opts.Workers = workers
			return RunTable4(ctx, opts)
		}},
		{"figure23", func(ctx context.Context, workers int) (any, error) {
			opts := fastOpts()
			opts.Workers = workers
			return RunFigure23(ctx, vfl.RandomForest, opts)
		}},
		{"figure4", func(ctx context.Context, workers int) (any, error) {
			opts := Figure4Options{
				Options:           fastOpts(),
				Rounds:            60,
				ExplorationRounds: 60,
				Models:            []vfl.BaseModel{vfl.RandomForest},
			}
			opts.Runs = 6
			opts.Datasets = []dataset.Name{dataset.Titanic}
			opts.Workers = workers
			return RunFigure4(ctx, opts)
		}},
		{"sweep", func(ctx context.Context, workers int) (any, error) {
			opts := fastOpts()
			opts.Runs = 8
			opts.Workers = workers
			sweeps := map[SweepParam][]float64{
				SweepEpsilon:     {1e-4, 1e-2},
				SweepPoolSize:    {40, 400},
				SweepUtilityRate: {500, 2000},
				SweepCatalogSize: {10, 40},
			}
			var out []*Sweep
			for _, param := range []SweepParam{SweepEpsilon, SweepPoolSize, SweepUtilityRate, SweepCatalogSize} {
				s, err := RunSweep(ctx, dataset.Titanic, param, sweeps[param], opts)
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
			return out, nil
		}},
	}
}

func TestRunnerGoldens(t *testing.T) {
	for _, g := range runnerGoldens() {
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join("testdata", g.name+".golden")
			for _, workers := range []int{1, 4} {
				res, err := g.run(t.Context(), workers)
				if err != nil {
					t.Fatal(err)
				}
				got := dumpValue(res)
				if *updateGoldens && workers == 1 {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("golden missing (rerun with -update): %v", err)
				}
				if got != string(want) {
					t.Fatalf("workers %d: %s drifted: %s", workers, path, firstDiff(got, string(want)))
				}
			}
		})
	}
}

// dumpValue renders v as one "path = value" line per leaf. Floats use the
// shortest representation that parses back to the same bits, so a one-ulp
// change shows up as a changed line.
func dumpValue(v any) string {
	var b strings.Builder
	dumpInto(&b, "", reflect.ValueOf(v))
	return b.String()
}

func dumpInto(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		fmt.Fprintf(b, "%s = <nil>\n", path)
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = <nil>\n", path)
			return
		}
		dumpInto(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpInto(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s.len = %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpInto(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			dumpInto(b, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s = %s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(b, "%s = %q\n", path, v.String())
	default: // bools and integers
		fmt.Fprintf(b, "%s = %v\n", path, v)
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
