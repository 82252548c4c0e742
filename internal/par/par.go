// Package par is the planning engine's deterministic parallelism layer: a
// bounded, context-aware worker pool whose results are byte-identical to a
// sequential run at any worker count.
//
// The determinism contract has three legs, and every caller in this
// repository leans on all of them:
//
//   - Work is identified by index. Do runs fn(ctx, i) for i in [0, tasks);
//     Map additionally collects fn's results into a slice slot i. Workers
//     race over *which goroutine* runs an index, never over *where its
//     result lands*, so the assembled output is independent of scheduling.
//   - Errors are reported by lowest index, not by arrival time. A run that
//     fails on tasks 7 and 3 always reports task 3's error, at any worker
//     count.
//   - Seeding is the caller's job: derive per-task seeds from the task
//     index (never from shared mutable state) and equal inputs give equal
//     outputs regardless of interleaving.
//
// Cancellation: once ctx is done, no new task starts; already-running
// tasks finish on their own (they receive the same ctx and are expected to
// honor it). Do and Map then report ctx.Err() unless an earlier task error
// takes precedence. Callers that aggregate partial results should track
// completion per index themselves (see internal/experiments).
//
// When ctx carries an *obs.Tracer, each call records par.batches (one per
// Do/Map call), par.tasks (tasks submitted) and par.workers (goroutines
// used, after clamping); these land in -trace-json output.
package par

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Size resolves a requested worker count: values <= 0 mean
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Size(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Do runs fn(ctx, i) for every i in [0, tasks) on at most Size(workers)
// concurrent goroutines and waits for all of them.
//
// All tasks are attempted even when some fail — a planning sweep should
// not lose cell 900 because cell 3 hit a bad seed — and the returned error
// is the failing task with the lowest index (deterministic at any worker
// count). When ctx is cancelled, not-yet-started tasks are skipped and the
// context error is returned instead, unless a task error (lowest index)
// already occurred.
//
// With workers resolving to 1 the tasks run inline on the calling
// goroutine in index order, with no channel or goroutine overhead — the
// sequential seed behavior, byte for byte.
func Do(ctx context.Context, tasks, workers int, fn func(ctx context.Context, i int) error) error {
	if tasks <= 0 {
		return ctx.Err()
	}
	w := Size(workers)
	if w > tasks {
		w = tasks
	}
	tr := obs.FromContext(ctx)
	tr.Add("par.batches", 1)
	tr.Add("par.tasks", int64(tasks))
	tr.Add("par.workers", int64(w))

	var errs []error
	if w == 1 {
		for i := 0; i < tasks; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := fn(ctx, i); err != nil {
				if errs == nil {
					errs = make([]error, tasks)
				}
				errs[i] = err
			}
		}
		return firstError(ctx, errs)
	}

	errs = make([]error, tasks)
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain remaining indices without running them
				}
				errs[i] = fn(ctx, i)
			}
		}()
	}
dispatch:
	for i := 0; i < tasks; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return firstError(ctx, errs)
}

// Map runs fn(ctx, i) for every i in [0, tasks) on at most Size(workers)
// goroutines and returns the results indexed by task. Slots whose task
// failed or was skipped by cancellation hold the zero value; the error
// follows Do's contract (lowest-index task error, else ctx.Err()).
func Map[T any](ctx context.Context, tasks, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, tasks)
	err := Do(ctx, tasks, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// firstError returns the lowest-index task error, else ctx.Err(), else nil.
func firstError(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
