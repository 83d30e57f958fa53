package fleet

import (
	"context"
	"net"
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
// whole budget instead (here: until the 20 s context gives up).
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

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		start := time.Now()
		werr := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w", Workers: 1, ExplicitWorkers: true})
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
// leave the coordinator a connection that holds up its Close.
func TestWorkerStopsAfterItsOwnFailedCell(t *testing.T) {
	for _, slots := range []int{1, 2} {
		coord, err := NewCoordinator(CoordinatorConfig{Study: doomedStudy(3, 4, 5, 6, 7, 8), Addr: "127.0.0.1:0", Log: t.Logf})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*dialBudget)
		werr := make(chan error, 1)
		go func() {
			werr <- RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w", Workers: slots, ExplicitWorkers: true, Log: t.Logf})
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
		// until the drain times out.
		if d := time.Since(closeStart); d >= drainTimeout {
			t.Errorf("%d slots: Close took %v, its whole drain timeout", slots, d)
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
