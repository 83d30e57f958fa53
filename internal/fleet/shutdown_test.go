package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/study"
)

// closeOnLast is an observer that calls the coordinator's Close from inside
// the last cell's OnRunDone — that is, from inside the result handler,
// before the acknowledgement is written — and returns only once the
// listener refuses connections, so every run puts Close exactly in the
// window where it used to cut the last worker's reply.
type closeOnLast struct {
	coord  *Coordinator
	closed chan error
}

func (o *closeOnLast) OnRunStart(study.RunInfo)                        {}
func (o *closeOnLast) OnSample(study.RunInfo, experiment.SeriesSample) {}

func (o *closeOnLast) OnRunDone(study.RunInfo, experiment.Summary, error) {
	if o.coord.Remaining() > 0 {
		return
	}
	go func() { o.closed <- o.coord.Close() }()
	for {
		conn, err := net.DialTimeout("tcp", o.coord.Addr(), time.Second)
		if err != nil {
			return
		}
		conn.Close()
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDeliversTheLastAcknowledgement: a coordinator closed while the
// final result's handler is still running must let that handler answer.
// The worker then learns the grid is done and returns nil at once; with a
// Close that resets open connections it redials a dead address for its
// whole budget instead (here: until testBound gives up).
func TestCloseDeliversTheLastAcknowledgement(t *testing.T) {
	st := &study.Study{
		Name:       "fleet-shutdown",
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{1, 2},
		Duration:   study.Duration(5 * time.Second),
		PeerFactor: 0.05,
	}
	for round := 0; round < 20; round++ {
		obs := &closeOnLast{closed: make(chan error, 1)}
		coord, err := NewCoordinator(CoordinatorConfig{
			Study: st, Addr: "127.0.0.1:0", Observers: []study.Observer{obs},
		})
		if err != nil {
			t.Fatalf("round %d: NewCoordinator: %v", round, err)
		}
		obs.coord = coord

		ctx, cancel := context.WithTimeout(context.Background(), testBound)
		start := time.Now()
		werr := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w", Workers: 1})
		cancel()
		if werr != nil {
			t.Fatalf("round %d: last worker returned %v after %v, want nil", round, werr, time.Since(start))
		}
		if cerr := <-obs.closed; cerr != nil {
			t.Errorf("round %d: Close: %v", round, cerr)
		}
		res, err := coord.Wait(context.Background())
		if err != nil || len(res.Cells) != 2 || !res.Cells[0].Done || !res.Cells[1].Done {
			t.Fatalf("round %d: Wait after Close = %+v, %v; want the complete grid", round, res, err)
		}
	}
}

// TestWorkerStopsAfterItsOwnFailedCell: a worker whose own cell failed
// returns the study error, the text Coordinator.Wait returns, as soon as the
// coordinator acknowledges the failure, and cancels its other slots. Here
// the coordinator closes once Wait returns, as the CLI's does; a worker that
// leased again after the acknowledgement would redial the dead address for
// its whole budget. With two slots both cells fail, and either may be the
// one Wait and the worker report; the slot cancelled mid-dial must not
// leave the coordinator a connection that holds up its Close. Over a
// one-cell grid the second slot is told to wait; the failure the first slot
// reports answers it too, so Close does not wait for it to poll again.
func TestWorkerStopsAfterItsOwnFailedCell(t *testing.T) {
	for _, tc := range []struct {
		seeds []int64
		slots int
	}{{[]int64{3, 4, 5, 6, 7, 8}, 1}, {[]int64{3, 4, 5, 6, 7, 8}, 2}, {[]int64{3}, 2}} {
		slots := tc.slots
		coord, err := NewCoordinator(CoordinatorConfig{Study: doomedStudy(tc.seeds...), Addr: "127.0.0.1:0", Log: t.Logf})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), testBound)
		werr := make(chan error, 1)
		go func() {
			werr <- RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w", Workers: slots, Log: t.Logf})
		}()
		_, waitErr := coord.Wait(ctx)
		if waitErr == nil {
			t.Fatalf("%d slots: doomed study succeeded", slots)
		}
		closeStart := time.Now()
		if err := coord.Close(); err != nil {
			t.Errorf("%d slots: Close: %v", slots, err)
		}
		// A worker connection that never sends a request holds Close
		// until the drain times out, and an unanswered waiter for
		// waitGrace.
		if d := time.Since(closeStart); d >= waitGrace/2 {
			t.Errorf("%d slots, %d cells: Close took %v", slots, len(tc.seeds), d)
		}
		select {
		case err := <-werr:
			switch {
			case err == nil:
				t.Errorf("%d slots: worker returned nil, want the study error", slots)
			case slots == 1 && err.Error() != waitErr.Error():
				t.Errorf("worker returned %v, want Wait's %v", err, waitErr)
			case !strings.HasPrefix(err.Error(), "study fleet-doomed: TVAnts @doomed seed ") || !strings.Contains(err.Error(), "deferred"):
				t.Errorf("%d slots: worker returned %v, want a doomed cell's study error", slots, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d slots: the worker outlived its failed cell and the coordinator by 10 s", slots)
		}
		cancel()
	}
}

// TestIdleSlotsLearnTheGridIsDone: in a one-cell grid every slot but the one
// that leases the cell is told to wait. Once Wait and Close return, each
// worker must return nil within 5 s, whether its idle slot is the finisher's
// sibling or another worker's only slot; polling a closed coordinator, it
// would redial for its whole budget instead and exit "unreachable". The
// cell's result waits until some slot has been told to wait, so every run
// takes that path.
func TestIdleSlotsLearnTheGridIsDone(t *testing.T) {
	st := &study.Study{
		Name:       "fleet-idle",
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{1},
		Duration:   study.Duration(5 * time.Second),
		PeerFactor: 0.05,
	}
	for _, tc := range []struct {
		name           string
		workers, slots int
	}{
		{"one worker, two slots", 1, 2},
		{"two workers, one slot each", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", Log: t.Logf})
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			someoneWaits := func(int, *experiment.Summary, func(experiment.SeriesSample)) error {
				for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
					coord.mu.Lock()
					n := len(coord.waiting)
					coord.mu.Unlock()
					if n > 0 {
						return nil
					}
				}
				t.Error("no slot was told to wait")
				return nil
			}
			ctx, cancel := context.WithTimeout(context.Background(), testBound)
			defer cancel()
			werr := make(chan error, tc.workers)
			for i := range tc.workers {
				cfg := WorkerConfig{
					Addr: coord.Addr(), Name: fmt.Sprintf("w%d", i), Workers: tc.slots,
					Log: t.Logf, beforeResult: someoneWaits,
				}
				go func() { werr <- RunWorker(ctx, cfg) }()
			}
			if _, err := coord.Wait(ctx); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			closeStart := time.Now()
			if err := coord.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if d := time.Since(closeStart); d > waitGrace+time.Second {
				t.Errorf("Close took %v", d)
			}
			timeout := time.After(5 * time.Second)
			for range tc.workers {
				select {
				case err := <-werr:
					if err != nil {
						t.Errorf("worker returned %v, want nil", err)
					}
				case <-timeout:
					t.Fatal("a worker outlived the finished grid and its coordinator by 5 s")
				}
			}
		})
	}
}

// TestCloseGivesUpOnAWaiterThatNeverPolls: a worker told to wait that never
// polls again (killed, say) holds Close for waitGrace after it was told,
// and no longer.
func TestCloseGivesUpOnAWaiterThatNeverPolls(t *testing.T) {
	st := &study.Study{Name: "fleet-ghost", Apps: []string{"TVAnts"}, Seeds: []int64{1}, Duration: study.Duration(5 * time.Second), PeerFactor: 0.05}
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", LeaseTTL: time.Hour})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	rep := leaseAs(t, coord.Addr(), "w")
	if ghost := leaseAs(t, coord.Addr(), "ghost"); ghost.Status != StatusWait {
		t.Fatalf("ghost's lease answered %+v, want wait", ghost)
	}
	told := time.Now()
	sum, err := coord.grid.RunCell(context.Background(), rep.Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, coord.Addr(), "result", resultPost{Worker: "w", Index: rep.Index, Digest: rep.Digest, Summary: &sum}); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, body)
	}
	if err := coord.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(told); d < waitGrace || d > waitGrace+time.Second {
		t.Errorf("Close returned %v after the ghost was told to wait, want waitGrace (%v)", d, waitGrace)
	}
}
