package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// arrival is one scheduled session: when it is due, relative to the start of
// its sub-run, and the inputs it plays with.
type arrival struct {
	// Index is the arrival's position in its schedule.
	Index int
	At    time.Duration
	// Seed is the session seed. Never 0: across the public API 0 means
	// "inherit the template seed".
	Seed uint64
	// Shard is the shard a churn session dials first.
	Shard int
}

// schedule draws Poisson arrivals at rate per second over d. The same seed
// always yields the same arrivals.
func schedule(seed uint64, rate float64, d time.Duration, shards int) []arrival {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	var out []arrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		s := r.Uint64()
		if s == 0 {
			s = 1
		}
		out = append(out, arrival{Index: len(out), At: at, Seed: s, Shard: r.IntN(max(shards, 1))})
	}
}

// outcome is one session's record from an open-loop run.
type outcome struct {
	// Latency runs from the arrival's intended send time to the result, so a
	// stall is charged to every session queued behind it.
	Latency time.Duration
	// Late is how far behind the schedule the generator dispatched it.
	Late   time.Duration
	Result any
	Err    error
}

// sessionFunc plays one session.
type sessionFunc func(ctx context.Context, a arrival) (any, error)

// runOpenLoop dispatches every arrival at its intended time and waits for all
// of them. workers > 0 caps the sessions in flight: later arrivals wait in
// the generator, still timed from their intended send. workers == 0 starts
// each session on its own goroutine, however many are in flight.
func runOpenLoop(ctx context.Context, arrivals []arrival, workers int, fn sessionFunc) []outcome {
	out := make([]outcome, len(arrivals))
	start := time.Now()
	run := func(i int) {
		res, err := fn(ctx, arrivals[i])
		out[i].Latency = time.Since(start) - arrivals[i].At
		out[i].Result, out[i].Err = res, err
	}
	var wg sync.WaitGroup
	queue := make(chan int, len(arrivals)) // sized to the sends: dispatch never blocks
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				run(i)
			}
		}()
	}
	for i, a := range arrivals {
		if d := a.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].Late = time.Since(start) - a.At
		if workers > 0 {
			queue <- i
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	close(queue)
	wg.Wait()
	return out
}
