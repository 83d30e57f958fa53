package study

// Run's cells run in parallel here: one goroutine per worker, one cell per
// task, results delivered in input order regardless of completion order.
// Each simulation engine is strictly single-threaded for determinism, so
// this is where independent experiments run side by side.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// parallelCtx maps f over inputs using at most workers goroutines and
// returns the outputs in input order. The first error (by input order) is
// returned alongside the partial results; failed slots hold the zero value.
// A panic inside f is captured and converted to an error rather than tearing
// down the whole sweep.
//
// Once ctx is done, workers stop picking up new tasks (unstarted slots hold
// ctx.Err() and the zero value) and ctx.Err() is returned in preference to
// any task error, alongside the partial results. In-flight tasks receive
// ctx and are expected to wind down on their own (experiment.RunCtx polls
// it); every worker goroutine is joined before parallelCtx returns,
// cancelled or not, so callers never leak goroutines.
func parallelCtx[I any, O any](ctx context.Context, inputs []I, workers int, f func(context.Context, I) (O, error)) ([]O, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) {
		workers = len(inputs)
	}
	out := make([]O, len(inputs))
	errs := make([]error, len(inputs))
	if len(inputs) == 0 {
		return out, ctx.Err()
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = runOne(ctx, inputs[i], f)
			}
		}()
	}
	for i := range inputs {
		next <- i
	}
	close(next)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return out, err
	}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("input %d: %w", i, err)
		}
	}
	return out, nil
}

func runOne[I any, O any](ctx context.Context, in I, f func(context.Context, I) (O, error)) (out O, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f(ctx, in)
}

// seeds builds n sequential seeds starting at base — the conventional
// input for multi-trial sweeps. A non-positive n yields an empty list
// rather than a panic, so a computed trial count of -1 degrades into "no
// trials", a loud empty table, not a crash.
func seeds(base int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}
