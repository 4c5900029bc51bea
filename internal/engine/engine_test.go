package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var ran [100]atomic.Int32
		err := ForEach(context.Background(), len(ran), Options{Workers: workers}, func(ctx context.Context, i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 0, Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapDeterministicOrdering(t *testing.T) {
	// Make early indices finish last: results must still land at
	// their own index.
	out, err := Map(context.Background(), 32, Options{Workers: 8}, func(ctx context.Context, i int) (int, error) {
		time.Sleep(time.Duration(32-i) * time.Millisecond / 8)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachFirstErrorPropagates(t *testing.T) {
	const workers = 2
	boom := errors.New("boom")
	var started atomic.Int32
	err := ForEach(context.Background(), 1000, Options{Workers: workers}, func(ctx context.Context, i int) error {
		started.Add(1)
		switch {
		case i == 3:
			return fmt.Errorf("task payload: %w", boom)
		case i < 3:
			return nil
		}
		// Every later task holds its worker until the batch is
		// cancelled, so none finishes before task 3 fails. The guard
		// turns a missed cancellation into a failure, not a hang.
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("batch never cancelled")
		}
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the task error", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 3 {
		t.Fatalf("error %v does not identify the failing task", err)
	}
	// Fail-fast: past tasks 0–3, each worker can hold one task when
	// the batch is cancelled and be handed at most one more.
	if n := started.Load(); n > 4+2*workers {
		t.Errorf("fail-fast still started %d/1000 tasks, want <= %d", n, 4+2*workers)
	}
}

func TestForEachKeepGoingAggregatesAllErrors(t *testing.T) {
	err := ForEach(context.Background(), 10, Options{Workers: 4, KeepGoing: true}, func(ctx context.Context, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %T is not a joined error", err)
	}
	errs := joined.Unwrap()
	if len(errs) != 4 { // i = 0, 3, 6, 9
		t.Fatalf("aggregated %d errors, want 4: %v", len(errs), err)
	}
	// Deterministic aggregation: ascending task index.
	prev := -1
	for _, e := range errs {
		var te *TaskError
		if !errors.As(e, &te) {
			t.Fatalf("joined element %v is not a TaskError", e)
		}
		if te.Index <= prev {
			t.Fatalf("errors not in index order: %v", err)
		}
		prev = te.Index
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 100, Options{Workers: 4}, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 4 {
		t.Errorf("cancelled batch still ran %d tasks", n)
	}
}

func TestForEachMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 1000, Options{Workers: 2}, func(ctx context.Context, i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n < 5 || n > 10 {
		t.Errorf("ran %d tasks around cancellation, want ~5", n)
	}
}

// TestForEachDrainsWorkers asserts the engine never leaks goroutines:
// every started task signals a done channel, and after ForEach
// returns the in-flight count is zero and the goroutine count settles
// back to the baseline.
func TestForEachDrainsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var inFlight atomic.Int32
	done := make(chan int, 64)
	err := ForEach(context.Background(), 64, Options{Workers: 8}, func(ctx context.Context, i int) error {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		defer func() { done <- i }()
		if i == 20 {
			return errors.New("fail mid-batch")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want the injected error")
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d tasks still in flight after ForEach returned", n)
	}
	close(done)
	started := 0
	for range done {
		started++
	}
	if started == 0 || started > 64 {
		t.Fatalf("done-channel count %d", started)
	}
	// The worker goroutines themselves must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	out, err := Map(context.Background(), 4, Options{Workers: 1}, func(ctx context.Context, i int) (string, error) {
		if i == 2 {
			return "", errors.New("no")
		}
		return fmt.Sprint(i), nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out[0] != "0" || out[1] != "1" || out[2] != "" {
		t.Fatalf("partial results %v", out)
	}
}

func TestPoolCapsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Cap() != 3 {
		t.Fatalf("cap %d", p.Cap())
	}
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func() error {
				c := cur.Add(1)
				for {
					old := peak.Load()
					if c <= old || peak.CompareAndSwap(old, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d over pool cap 3", got)
	}
	if p.InUse() != 0 {
		t.Fatalf("slots still held: %d", p.InUse())
	}
}

func TestPoolAcquireHonorsContext(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	p.Release()
	// A free slot is granted even on an already-cancelled context.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := p.Acquire(done); err != nil {
		t.Fatalf("free slot refused on cancelled ctx: %v", err)
	}
	p.Release()
}

func TestPoolReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewPool(1).Release()
}

func TestPoolWaitingCountsQueuedAcquires(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Waiting() != 0 {
		t.Fatalf("fresh pool reports %d waiting", p.Waiting())
	}

	const queued = 3
	var started, done sync.WaitGroup
	started.Add(queued)
	done.Add(queued)
	for i := 0; i < queued; i++ {
		go func() {
			defer done.Done()
			started.Done()
			if err := p.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			p.Release()
		}()
	}
	started.Wait()
	// Wait for every goroutine to actually park on the full pool.
	deadline := time.Now().Add(2 * time.Second)
	for p.Waiting() != queued {
		if time.Now().After(deadline) {
			t.Fatalf("waiting %d, want %d", p.Waiting(), queued)
		}
		time.Sleep(time.Millisecond)
	}

	// TryAcquire rejections never queue.
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	if p.Waiting() != queued {
		t.Fatalf("TryAcquire changed Waiting to %d", p.Waiting())
	}

	p.Release()
	done.Wait()
	if p.Waiting() != 0 {
		t.Fatalf("drained pool reports %d waiting", p.Waiting())
	}
}
