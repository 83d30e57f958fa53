package study_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"napawine/internal/fleet"
	"napawine/internal/study"
)

// tinyGrid is the smallest grid worth executing: one app, two seeds.
func tinyGrid(name string) *study.Study {
	return &study.Study{
		Name: name, Apps: []string{"TVAnts"}, Seeds: []int64{1, 2},
		Duration: study.Duration(15 * time.Second), PeerFactor: 0.05,
	}
}

// TestGridResolvedOncePerExecutor counts Study.Resolve calls: one per Run,
// one per NewCoordinator (assembling the Result at the end included), one
// per RunWorker however many cells it leases.
func TestGridResolvedOncePerExecutor(t *testing.T) {
	var resolved atomic.Int64
	defer study.SetResolveHook(func() { resolved.Add(1) })()
	step := func(what string, want int64) {
		t.Helper()
		if got := resolved.Swap(0); got != want {
			t.Errorf("%s resolved the grid %d times, want %d", what, got, want)
		}
	}

	local, err := study.Run(context.Background(), tinyGrid("once"), study.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	step("Run", 1)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Study: tinyGrid("once"), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	step("NewCoordinator", 1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// One slot, so this worker leases both cells itself.
	if err := fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: coord.Addr(), Name: "w", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	step("RunWorker over two cells", 1)

	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	step("Coordinator.Wait", 0)
	for i := range res.Cells {
		if res.Cells[i].Point != local.Cells[i].Point || !res.Cells[i].Done {
			t.Errorf("fleet cell %d is %+v (done %v), the local run's is %+v",
				i, res.Cells[i].Point, res.Cells[i].Done, local.Cells[i].Point)
		}
	}
}
