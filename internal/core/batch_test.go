package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestBatchResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		got, err := Batch(t.Context(), 20, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(got) != 20 {
			t.Fatalf("workers %d: %d results, want 20", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers %d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestBatchFirstErrorSkipsUnstartedCalls(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	got, err := Batch(t.Context(), 6, 1, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 99, boom
		}
		return i + 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d calls, want 3: calls after the failure were not skipped", n)
	}
	want := []int{1, 2, 0, 0, 0, 0} // the failed slot and the skipped ones stay zero
	if !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}

	// Two workers: a call still running when the other fails finishes and
	// keeps its result, and its worker starts nothing more.
	calls.Store(0)
	running := make(chan struct{})
	got, err = Batch(t.Context(), 6, 2, func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		switch i {
		case 0:
			<-running
			return 99, boom
		case 1:
			close(running)
			<-ctx.Done()
			return 2, nil
		}
		return i + 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d calls, want 2: calls after the failure were not skipped", n)
	}
	if want := []int{0, 2, 0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
}

func TestBatchFirstErrorWins(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	_, err := Batch(t.Context(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			return 0, first
		}
		<-ctx.Done() // the first failure cancels the calls still running
		return 0, second
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the first failure", err)
	}
}

func TestBatchParentCancelledBefore(t *testing.T) {
	cause := errors.New("shutting down")
	ctx, cancel := context.WithCancelCause(t.Context())
	cancel(cause)
	var calls atomic.Int32
	got, err := Batch(ctx, 4, 2, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 1, nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the parent's cause", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("%d calls ran under a cancelled context", calls.Load())
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("slot %d = %d, want 0", i, v)
		}
	}
}

func TestBatchParentCancelledDuring(t *testing.T) {
	cause := errors.New("deadline from above")
	ctx, cancel := context.WithCancelCause(t.Context())
	got, err := Batch(ctx, 10, 1, func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			cancel(cause)
		}
		return i + 1, nil // a call that ignores ctx still completes
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the parent's cause", err)
	}
	for i, v := range got {
		want := 0
		if i <= 3 {
			want = i + 1
		}
		if v != want {
			t.Fatalf("slot %d = %d, want %d", i, v, want)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		got, err := Batch(t.Context(), n, 4, func(context.Context, int) (int, error) {
			t.Error("play called for an empty batch")
			return 0, nil
		})
		if got != nil || err != nil {
			t.Fatalf("n %d: got (%v, %v), want (nil, nil)", n, got, err)
		}
	}
}

func TestBatchStartsAtMostNWorkers(t *testing.T) {
	const n = 3
	started := make(chan struct{}, n)
	release := make(chan struct{})
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Batch(t.Context(), n, 64, func(context.Context, int) (int, error) {
			started <- struct{}{}
			<-release
			return 0, nil
		})
		done <- err
	}()
	for range n {
		<-started
	}
	// The goroutine calling Batch plus one worker per call; 64 workers
	// would show here as ~64 more.
	if extra := runtime.NumGoroutine() - base; extra > n+1 {
		t.Errorf("%d goroutines running for a batch of %d", extra, n)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBatchPanicStopsPoolAndReraisesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var calls atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			Batch(t.Context(), 50, workers, func(ctx context.Context, i int) (int, error) {
				calls.Add(1)
				if i == 2 {
					panic("boom")
				}
				if workers > 1 {
					<-ctx.Done() // keep the other workers busy until the pool stops
				}
				return i, nil
			})
			return nil
		}()
		if got != "boom" {
			t.Fatalf("workers %d: recovered %v, want the play panic", workers, got)
		}
		if n := calls.Load(); n > int32(workers)+2 {
			t.Fatalf("workers %d: %d calls after a panic at index 2: the pool kept going", workers, n)
		}
	}
}
