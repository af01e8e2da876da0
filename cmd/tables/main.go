// Command tables regenerates the paper's tables.
//
// Table 2: dataset statistics. Table 3: the effect of bargaining cost.
// Table 4: bargaining under imperfect vs perfect performance information.
//
// Usage:
//
//	go run ./cmd/tables -table 3 [-runs 100] [-scale 1] [-synthetic] [-csv] [-workers N]
//
// Repeated runs fan out over core.Batch's in-process worker pool (-workers
// bounds the pool; 0 means GOMAXPROCS): Table 4's imperfect sessions play
// through the batched estimator-scan kernels. Results are deterministic in -seed alone — the
// worker count never changes outcomes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	table := flag.Int("table", 3, "table to regenerate: 2, 3, or 4")
	runs := flag.Int("runs", 100, "bargaining games per configuration")
	seed := flag.Uint64("seed", 1, "master seed")
	scale := flag.Float64("scale", 1, "profile scale in (0,1]; lower is faster")
	synthetic := flag.Bool("synthetic", false, "use synthetic gains instead of training real VFL courses")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	workers := flag.Int("workers", 0, "worker pool size for repeated runs; 0 means GOMAXPROCS")
	flag.Parse()

	ctx, stop := exp.SignalContext()
	defer stop()

	opts := exp.Options{Runs: *runs, Seed: *seed, Scale: *scale, Workers: *workers}
	if *synthetic {
		opts.GainSource = exp.GainSynthetic
	}
	render := func(tab *exp.TextTable) {
		var err error
		if *asCSV {
			err = tab.WriteCSV(os.Stdout)
		} else {
			err = tab.Render(os.Stdout)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	switch *table {
	case 2:
		fmt.Println("Table 2: Dataset statistics.")
		render(exp.FormatTable2(exp.RunTable2(*seed)))
	case 3:
		fmt.Println("Table 3: Effect of bargaining cost (random-forest base model).")
		res, err := exp.RunTable3(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		render(exp.FormatTable3(res))
	case 4:
		fmt.Println("Table 4: Bargaining under imperfect performance information.")
		res, err := exp.RunTable4(ctx, exp.Table4Options{Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		render(exp.FormatTable4(res))
	default:
		log.Fatalf("unknown table %d (want 2, 3, or 4)", *table)
	}
}
