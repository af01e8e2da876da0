package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch calls play(ctx, 0..n-1) across a bounded worker pool (workers <= 0
// means GOMAXPROCS) and returns the results in index order. play must touch
// only its own index's state. Outcomes depend only on what play does with
// its index, never on the worker count: a session seeded from its own
// configuration plays the same at one worker or at many.
//
// The first error cancels the context handed to the calls still running,
// skips the calls not yet started, and is returned together with the
// partial results; a slot whose call failed or never ran stays zero. When
// the parent context ends first, its cause is returned instead.
func Batch[T any](ctx context.Context, n, workers int, play func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		out      = make([]T, n)
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := play(ctx, i)
				if err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		// The parent context ended: no call failed, so cancel has not run.
		firstErr = context.Cause(ctx)
	}
	return out, firstErr
}
