package fleet

import (
	"context"
	"net"
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
