package study

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelOrderPreserved(t *testing.T) {
	in := make([]int, 50)
	for i := range in {
		in[i] = i
	}
	out, err := parallelCtx(context.Background(), in, 8, func(_ context.Context, x int) (int, error) {
		// Reverse completion order: later inputs finish first.
		time.Sleep(time.Duration(50-x) * 100 * time.Microsecond)
		return x * x, nil
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

func TestParallelConcurrencyBound(t *testing.T) {
	var active, peak int64
	in := make([]int, 40)
	_, err := parallelCtx(context.Background(), in, 4, func(_ context.Context, _ int) (int, error) {
		n := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&active, -1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Errorf("peak concurrency %d exceeds worker bound 4", peak)
	}
}

func TestParallelError(t *testing.T) {
	in := []int{0, 1, 2, 3}
	boom := errors.New("boom")
	out, err := parallelCtx(context.Background(), in, 2, func(_ context.Context, x int) (int, error) {
		if x == 2 {
			return 0, boom
		}
		return x + 10, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "input 2") {
		t.Errorf("error should name the failing input: %v", err)
	}
	// Successful slots still populated.
	if out[0] != 10 || out[1] != 11 || out[3] != 13 {
		t.Errorf("partial results lost: %v", out)
	}
}

func TestParallelFirstErrorByInputOrder(t *testing.T) {
	// Input 3 fails fast, input 1 fails slow: the reported error must be
	// input 1's — first by input order, not by completion order.
	in := []int{0, 1, 2, 3}
	errSlow := errors.New("slow failure")
	errFast := errors.New("fast failure")
	out, err := parallelCtx(context.Background(), in, 4, func(_ context.Context, x int) (int, error) {
		switch x {
		case 1:
			time.Sleep(20 * time.Millisecond)
			return 0, errSlow
		case 3:
			return 0, errFast
		}
		return x + 100, nil
	})
	if !errors.Is(err, errSlow) {
		t.Fatalf("err = %v, want input 1's error (first by input order)", err)
	}
	if !strings.Contains(err.Error(), "input 1") {
		t.Errorf("error should name input 1: %v", err)
	}
	// Successful slots keep their results even when the call errors.
	if out[0] != 100 || out[2] != 102 {
		t.Errorf("partial results lost: %v", out)
	}
	// Failed slots hold the zero value.
	if out[1] != 0 || out[3] != 0 {
		t.Errorf("failed slots not zeroed: %v", out)
	}
}

func TestParallelPanicCaptured(t *testing.T) {
	in := []int{1}
	_, err := parallelCtx(context.Background(), in, 1, func(_ context.Context, _ int) (int, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

func TestParallelEmptyAndDefaults(t *testing.T) {
	out, err := parallelCtx(context.Background(), nil, 0, func(_ context.Context, _ int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Error("empty input should be a no-op")
	}
	// workers <= 0 defaults to GOMAXPROCS; workers > len clamps.
	out, err = parallelCtx(context.Background(), []int{5}, -3, func(_ context.Context, x int) (int, error) { return x, nil })
	if err != nil || out[0] != 5 {
		t.Error("default workers failed")
	}
}

func TestSeeds(t *testing.T) {
	s := seeds(100, 3)
	if len(s) != 3 || s[0] != 100 || s[2] != 102 {
		t.Errorf("seeds = %v", s)
	}
	if len(seeds(1, 0)) != 0 {
		t.Error("zero seeds should be empty")
	}
}

// TestSeedsNegativeCount is the regression guard for the make([]int64, n)
// panic: a computed trial count that goes negative must degrade to an empty
// seed list, not crash the battery.
func TestSeedsNegativeCount(t *testing.T) {
	if s := seeds(7, -1); len(s) != 0 {
		t.Errorf("seeds(7, -1) = %v, want empty", s)
	}
	if s := seeds(7, -100); len(s) != 0 {
		t.Errorf("seeds(7, -100) = %v, want empty", s)
	}
}

// TestParallelCtxCancelSkipsPendingTasks: once the context is cancelled,
// workers must stop picking up new inputs, every worker goroutine must be
// joined, and the call must return ctx.Err() with the completed slots
// intact.
func TestParallelCtxCancelSkipsPendingTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make([]int, 32)
	for i := range in {
		in[i] = i
	}
	var started int64
	out, err := parallelCtx(ctx, in, 2, func(ctx context.Context, x int) (int, error) {
		atomic.AddInt64(&started, 1)
		if x == 1 {
			cancel()
		}
		// Let the cancellation propagate before the next pickup.
		time.Sleep(2 * time.Millisecond)
		return x + 10, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&started); n == 32 {
		t.Error("cancellation did not stop task pickup: every input ran")
	}
	// Slot 0 ran before the cancel (workers=2 started inputs 0 and 1).
	if out[0] != 10 {
		t.Errorf("completed slot lost: out[0] = %d, want 10", out[0])
	}
}

// TestParallelCtxBackgroundMatchesParallel: a context that is never
// cancelled changes nothing — every input runs and the outputs come back in
// input order.
func TestParallelCtxBackgroundMatchesParallel(t *testing.T) {
	in := []int{1, 2, 3, 4, 5}
	out, err := parallelCtx(context.Background(), in, 3,
		func(_ context.Context, x int) (int, error) { return x * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != in[i]*2 {
			t.Errorf("out[%d] = %d, want %d", i, v, in[i]*2)
		}
	}
}

// TestParallelCtxPreCancelled: a context cancelled before the call runs
// nothing and reports ctx.Err().
func TestParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	_, err := parallelCtx(ctx, []int{1, 2, 3}, 2, func(_ context.Context, x int) (int, error) {
		atomic.AddInt64(&ran, 1)
		return x, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Error("pre-cancelled context still ran tasks")
	}
}

func BenchmarkParallelOverhead(b *testing.B) {
	in := make([]int, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = parallelCtx(context.Background(), in, 8, func(_ context.Context, x int) (int, error) { return x, nil })
	}
}
