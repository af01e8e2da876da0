package vflmarket_test

import (
	"context"
	"fmt"

	"repro"
)

// The smallest possible market session: build a Titanic engine with
// synthetic gains and run one strategic bargaining game.
func Example() {
	engine, err := vflmarket.NewEngine("titanic",
		vflmarket.WithSynthetic(true),
		vflmarket.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}
	res, err := engine.Bargain(context.Background(), vflmarket.BargainOptions{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("outcome:", res.Outcome)
	fmt.Printf("equilibrium: realized ΔG %.4f at knee %.4f\n",
		res.Final.Gain, res.Final.Price.TargetGain())
	// Output:
	// outcome: success
	// equilibrium: realized ΔG 0.1395 at knee 0.1395
}

// The struct form of the engine configuration: the same engine as the
// functional options build.
func ExampleNewEngineFromConfig() {
	engine, err := vflmarket.NewEngineFromConfig(vflmarket.Config{
		Dataset:   "titanic",
		Synthetic: true,
		Seed:      42,
	})
	if err != nil {
		panic(err)
	}
	res, err := engine.Bargain(context.Background(), vflmarket.BargainOptions{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("outcome:", res.Outcome)
	// Output:
	// outcome: success
}

// A batch of bargaining sessions across the worker pool: every session
// plays on its own derived random stream, so the results are identical at
// any worker count.
func ExampleEngine_BargainBatch() {
	engine, err := vflmarket.NewEngine("titanic",
		vflmarket.WithSynthetic(true),
		vflmarket.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}
	specs := make([]vflmarket.BatchSpec, 8)
	results, err := engine.BargainBatch(context.Background(), specs, vflmarket.BatchOptions{
		Seed:    3,
		Workers: 4,
	})
	if err != nil {
		panic(err)
	}
	successes := 0
	for _, res := range results {
		if res.Outcome == vflmarket.Success {
			successes++
		}
	}
	fmt.Printf("%d/%d sessions closed at the equilibrium\n", successes, len(specs))
	// Output:
	// 8/8 sessions closed at the equilibrium
}

// Observers stream rounds while bargaining runs, instead of waiting for
// the final trace.
func ExampleRoundObserver() {
	engine, err := vflmarket.NewEngine("titanic",
		vflmarket.WithSynthetic(true),
		vflmarket.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}
	rounds := 0
	obs := vflmarket.ObserverFuncs{
		Round:   func(vflmarket.RoundRecord) { rounds++ },
		Outcome: func(res vflmarket.Result) { fmt.Printf("streamed %d rounds, %v\n", rounds, res.Outcome) },
	}
	if _, err := engine.Bargain(context.Background(), vflmarket.BargainOptions{
		Seed:      7,
		Observers: []vflmarket.RoundObserver{obs},
	}); err != nil {
		panic(err)
	}
	// Output:
	// streamed 99 rounds, success
}

// EquilibriumPrice constructs the Theorem 3.1 quote whose payment knee sits
// exactly at a chosen gain.
func ExampleEquilibriumPrice() {
	q := vflmarket.EquilibriumPrice(9.5, 1.4, 0.17)
	fmt.Printf("quote: p=%.1f P0=%.2f Ph=%.3f\n", q.Rate, q.Base, q.High)
	fmt.Printf("payment at the knee: %.3f (= Ph)\n", q.Payment(0.17))
	fmt.Printf("payment below the knee: %.3f\n", q.Payment(0.10))
	fmt.Printf("payment above the knee: %.3f (clamped)\n", q.Payment(0.50))
	// Output:
	// quote: p=9.5 P0=1.40 Ph=3.015
	// payment at the knee: 3.015 (= Ph)
	// payment below the knee: 2.350
	// payment above the knee: 3.015 (clamped)
}

// Comparing the paper's strategic bargaining against the Increase Price
// baseline on the same market: the strategic buyer nets more.
func ExampleEngine_Bargain_strategies() {
	engine, err := vflmarket.NewEngineFromConfig(vflmarket.Config{
		Dataset:   "titanic",
		Synthetic: true,
		Seed:      42,
	})
	if err != nil {
		panic(err)
	}
	strategic, err := engine.Bargain(context.Background(), vflmarket.BargainOptions{Seed: 3})
	if err != nil {
		panic(err)
	}
	baseline, err := engine.Bargain(context.Background(), vflmarket.BargainOptions{
		Seed:      3,
		TaskGreed: vflmarket.TaskIncreasePrice,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("strategic beats increase-price:",
		strategic.Final.NetProfit > baseline.Final.NetProfit)
	// Output:
	// strategic beats increase-price: true
}
