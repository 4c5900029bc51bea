// Package engine is the shared execution engine for CMAB-HS work
// done in bulk: a bounded worker-pool batch executor with
// deterministic result ordering, per-task error aggregation, and
// context.Context cancellation, plus a reusable concurrency pool for
// long-lived services.
//
// Every layer that used to hand-roll goroutine fan-out now runs here:
// the experiment harness executes its replicated parameter sweeps
// through ForEach, the broker service caps concurrently advancing
// jobs with a Pool, and the cmd tools get Ctrl-C cancellation that
// still flushes partial results because the engine stops dispatching
// at task boundaries instead of tearing work down mid-flight.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// TaskError records the failure of one task in a batch, preserving
// which task failed. It unwraps to the task's own error.
type TaskError struct {
	Index int
	Err   error
}

// Error implements the error interface.
func (e *TaskError) Error() string { return fmt.Sprintf("engine: task %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying task error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// Options tunes a batch run.
type Options struct {
	// Workers bounds how many tasks run concurrently; <= 0 means
	// GOMAXPROCS.
	Workers int
	// KeepGoing runs every task even after one fails. The default
	// (false) is fail-fast: the first task error cancels the batch,
	// already-running tasks finish, and no new ones start.
	KeepGoing bool
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded worker
// pool and returns after every started task has finished — it never
// leaks goroutines. Errors are aggregated per task: the returned
// error joins one *TaskError per failed task in ascending index
// order (errors.Join), so the first error is the lowest-index
// failure. Under the default fail-fast mode the first failure also
// cancels the context passed to the remaining tasks and stops new
// dispatch.
//
// Cancelling ctx stops dispatch at the next task boundary; tasks
// already in flight run to completion (they can observe ctx
// themselves to stop earlier). When ctx ends the batch early the
// returned error includes ctx's error.
func ForEach(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu    sync.Mutex
		fails []error // *TaskError values
	)
	workers := opts.workers(n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(runCtx, i); err != nil {
					mu.Lock()
					fails = append(fails, &TaskError{Index: i, Err: err})
					mu.Unlock()
					if !opts.KeepGoing {
						cancel()
					}
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// A select with a free worker and a cancelled batch picks
		// either case at random; checking first keeps fail-fast from
		// handing out more tasks after the first failure.
		if runCtx.Err() != nil {
			break
		}
		select {
		case next <- i:
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	sort.Slice(fails, func(a, b int) bool {
		return fails[a].(*TaskError).Index < fails[b].(*TaskError).Index
	})
	if err := ctx.Err(); err != nil {
		fails = append([]error{err}, fails...)
	}
	return errors.Join(fails...)
}

// Pool is a reusable concurrency cap for long-lived services: a
// counting semaphore whose Acquire honors context cancellation while
// waiting. The zero value is not usable; create with NewPool.
//
// A Pool is self-describing for telemetry: Cap, InUse, and Waiting
// expose capacity, active holders, and queue depth, so a metrics
// layer can scrape it without shadow accounting.
type Pool struct {
	slots   chan struct{}
	waiting atomic.Int64
}

// NewPool returns a pool admitting up to capacity concurrent holders;
// capacity <= 0 means GOMAXPROCS.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, capacity)}
}

// Acquire blocks until a slot is free or ctx is done. A free slot is
// granted even when ctx is already cancelled — callers that check
// ctx per work item (like the mechanism's round loop) then terminate
// promptly with their partial progress intact, which is friendlier
// than failing the whole request at admission.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot only if one is free right now, reporting
// whether it did. It is the load-shedding admission path: a service
// that would rather reject than queue checks TryAcquire and returns
// 429/Retry-After on false instead of parking the request on Acquire.
func (p *Pool) TryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire.
func (p *Pool) Release() {
	select {
	case <-p.slots:
	default:
		panic("engine: Pool.Release without matching Acquire")
	}
}

// Do runs fn while holding a slot.
func (p *Pool) Do(ctx context.Context, fn func() error) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	defer p.Release()
	return fn()
}

// Cap returns the pool's capacity.
func (p *Pool) Cap() int { return cap(p.slots) }

// InUse returns how many slots are currently held.
func (p *Pool) InUse() int { return len(p.slots) }

// Waiting returns how many Acquire calls are currently blocked on a
// full pool — the queue depth behind the semaphore. TryAcquire
// rejections never count: load shedding keeps the queue at zero.
func (p *Pool) Waiting() int { return int(p.waiting.Load()) }
