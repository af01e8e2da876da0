// Command figures regenerates the paper's figures as data series.
//
// Figure 2: bargaining dynamics and final-quote densities, random-forest
// base model. Figure 3: the same with the 3-layer MLP. Figure 4: the
// per-round MSE of the ΔG estimators under imperfect information.
//
// Usage:
//
//	go run ./cmd/figures -fig 2 [-runs 100] [-scale 1] [-synthetic] [-csv] [-out DIR] [-workers N]
//
// Repeated runs fan out over core.Batch's in-process worker pool (-workers
// bounds the pool; 0 means GOMAXPROCS): Figure 4's imperfect sessions play
// through the batched estimator-scan kernels. Results are deterministic in -seed alone — the worker count
// never changes outcomes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/exp"
	"repro/internal/vfl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.Int("fig", 2, "figure to regenerate: 2, 3, or 4")
	runs := flag.Int("runs", 100, "bargaining games per configuration")
	seed := flag.Uint64("seed", 1, "master seed")
	scale := flag.Float64("scale", 1, "profile scale in (0,1]; lower is faster")
	synthetic := flag.Bool("synthetic", false, "use synthetic gains instead of training real VFL courses")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := flag.String("out", "", "directory for per-panel files (default: stdout)")
	workers := flag.Int("workers", 0, "worker pool size for repeated runs; 0 means GOMAXPROCS")
	flag.Parse()

	ctx, stop := exp.SignalContext()
	defer stop()

	opts := exp.Options{Runs: *runs, Seed: *seed, Scale: *scale, Workers: *workers}
	if *synthetic {
		opts.GainSource = exp.GainSynthetic
	}

	emit := func(name string, tab *exp.TextTable) {
		w := io.Writer(os.Stdout)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			ext := ".txt"
			if *asCSV {
				ext = ".csv"
			}
			f, err := os.Create(filepath.Join(*outDir, name+ext))
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		} else {
			fmt.Printf("==== %s ====\n", name)
		}
		var err error
		if *asCSV {
			err = tab.WriteCSV(w)
		} else {
			err = tab.Render(w)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	switch *fig {
	case 2, 3:
		model := vfl.RandomForest
		if *fig == 3 {
			model = vfl.MLP
		}
		res, err := exp.RunFigure23(ctx, model, opts)
		if err != nil {
			log.Fatal(err)
		}
		for _, df := range res.Datasets {
			fmt.Printf("Figure %d on %s (%s): target ΔG = %.4g, reserved (p_l=%.3g, P_l=%.3g)\n",
				*fig, df.Dataset, df.Model, df.TargetGain, df.ReservedRate, df.ReservedBase)
			for _, s := range df.Strategies {
				fmt.Printf("  %-18s success %.0f%%  mean rounds %.1f\n",
					s.Label, 100*s.SuccessRate, s.MeanRounds)
			}
			emit(fmt.Sprintf("figure%d_%s_series", *fig, df.Dataset), exp.FormatFigureSeries(df))
			emit(fmt.Sprintf("figure%d_%s_density", *fig, df.Dataset), exp.FormatFigureDensities(df))
		}
	case 4:
		res, err := exp.RunFigure4(ctx, exp.Figure4Options{Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		emit("figure4_mse", exp.FormatFigure4(res, 10))
	default:
		log.Fatalf("unknown figure %d (want 2, 3, or 4)", *fig)
	}
}
