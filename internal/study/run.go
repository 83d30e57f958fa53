package study

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"napawine/internal/experiment"
)

// RunInfo identifies one grid cell to an Observer: its coordinate, the grid
// size, and who is computing it.
type RunInfo struct {
	Point

	// Total is the grid size.
	Total int

	// Worker attributes the cell's execution in a distributed run: the
	// fleet worker that leased it, or "spool" for a cell restored from a
	// checkpoint. Empty for local (in-process) execution. Attribution
	// only — Worker never participates in cell identity, labels or
	// digests, so a cell is the same cell whoever computes it.
	Worker string
}

// RunInfos enumerates the study's grid in execution order without running
// anything — the same RunInfo values, Index and Total included, that Run
// will later hand to observers. Dashboards use it to pre-populate a
// pending-cell grid before the first OnRunStart fires. It is the one-call
// form of Resolve + Infos.
func (st *Study) RunInfos() ([]RunInfo, error) {
	g, err := st.Resolve()
	if err != nil {
		return nil, err
	}
	return g.Infos(), nil
}

// Observer receives execution progress. Cells run on parallel workers, so
// callbacks fire concurrently; implementations must be safe for concurrent
// use and must not block (they run on the simulation goroutines).
type Observer interface {
	// OnRunStart fires as a worker picks the cell up. Cells skipped by
	// cancellation or by an earlier cell's failure never start.
	OnRunStart(RunInfo)
	// OnRunDone fires when the cell finishes: with its summary, or with
	// the error that stopped it (ctx.Err() for cancelled cells, the
	// recovered value for a panic), unlabelled, since RunInfo names the
	// cell.
	OnRunDone(RunInfo, experiment.Summary, error)
	// OnSample streams each time-series bucket of a scenario cell as the
	// run records it.
	OnSample(RunInfo, experiment.SeriesSample)
}

// options collects Run's functional options.
type options struct {
	workers   int
	observers []Observer
	keepFull  bool
}

// Option configures Run.
type Option func(*options)

// WithWorkers bounds parallel cells (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithObserver streams progress and time-series buckets to obs. Repeated
// options accumulate: every observer sees every callback, in the order the
// options were given, so a CLI progress printer and a dashboard can watch
// the same study without knowing about each other. A nil obs is ignored.
func WithObserver(obs Observer) Option {
	return func(o *options) { o.observers = append(o.observers, obs) }
}

// fanout is the Observer Fanout builds.
type fanout []Observer

// Fanout composes observers into one that delivers every callback to each
// of them in order; nil entries are dropped. Each delivery is panic-isolated
// per observer: a misbehaving dashboard callback must never take down the
// study (or starve the observers after it), so a panic is swallowed and
// that observer simply misses the event. Run and the fleet coordinator both
// deliver through it.
func Fanout(observers ...Observer) Observer {
	f := make(fanout, 0, len(observers))
	for _, obs := range observers {
		if obs != nil {
			f = append(f, obs)
		}
	}
	return f
}

func (f fanout) each(call func(Observer)) {
	for _, obs := range f {
		func() {
			defer func() { _ = recover() }()
			call(obs)
		}()
	}
}

func (f fanout) OnRunStart(info RunInfo) {
	f.each(func(o Observer) { o.OnRunStart(info) })
}

func (f fanout) OnRunDone(info RunInfo, sum experiment.Summary, err error) {
	f.each(func(o Observer) { o.OnRunDone(info, sum, err) })
}

func (f fanout) OnSample(info RunInfo, s experiment.SeriesSample) {
	f.each(func(o Observer) { o.OnSample(info, s) })
}

// WithFullResults retains every cell's full experiment.Result (Result.Full)
// instead of only its bounded summary. Memory then grows with the grid, not
// the worker count — this exists for the paper-format battery
// (napawine.RunAll, cmd/napawine at one seed), which reads observations and
// figures, not only summaries.
func WithFullResults() Option { return func(o *options) { o.keepFull = true } }

// Cell is one executed grid point of a Result: its coordinate and what the
// run there produced. The result codec writes these fields in this order
// (Point's first), untagged.
type Cell struct {
	Point

	// Done reports whether the cell actually ran; cancellation leaves
	// trailing cells un-run with a zero Summary.
	Done    bool
	Summary experiment.Summary
}

// Result is everything a study run produces: one Cell per grid point, in
// grid order.
type Result struct {
	Study *Study
	Seeds []int64
	Cells []Cell

	// Full holds each cell's complete experiment Result, parallel to
	// Cells, only under WithFullResults (nil slots for un-run cells).
	Full []*experiment.Result
}

// Trials reports the number of seeds per grid point.
func (r *Result) Trials() int { return len(r.Seeds) }

// Run executes the study: every grid cell is one independent experiment,
// run by a pool of WithWorkers goroutines that take cells in grid order and
// reduce each to its summary, so memory stays bounded by the worker count
// (unless WithFullResults asks otherwise).
//
// Cancellation: when ctx is done, in-flight cells halt promptly
// (experiment.RunCtx polls the context on the engine clock), unstarted
// cells never run, and Run returns the partial Result — completed cells
// have Done set and well-formed summaries — alongside ctx.Err().
//
// A cell that fails, by error or panic, gets OnRunDone with that error and
// fails the study: no further cell starts (cells already in flight run to
// completion), and Run returns the first failure in grid order, labelled
// with its cell, with a nil Result.
func Run(ctx context.Context, st *Study, opts ...Option) (*Result, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	g, err := st.Resolve()
	if err != nil {
		return nil, err
	}
	observer := Fanout(o.observers...)

	// Each goroutine writes only the slots of the cells it took; all are
	// joined before the slots are read.
	sums := make([]experiment.Summary, len(g.cells))
	done := make([]bool, len(g.cells))
	var full []*experiment.Result
	if o.keepFull {
		full = make([]*experiment.Result, len(g.cells))
	}
	// mu guards the dispatch cursor and the lowest-index failure.
	var mu sync.Mutex
	next, failIdx := 0, -1
	var failErr error
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == len(g.cells) || failIdx >= 0 || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for range min(workers, len(g.cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				c := g.cells[i]
				info := g.info(c)
				observer.OnRunStart(info)
				r, err := c.run(ctx, st, func(s experiment.SeriesSample) { observer.OnSample(info, s) })
				if err != nil {
					mu.Lock()
					if failIdx < 0 || i < failIdx {
						failIdx, failErr = i, err
					}
					mu.Unlock()
					observer.OnRunDone(info, experiment.Summary{}, err)
					continue
				}
				sums[i], done[i] = r.Summary, true
				if full != nil {
					full[i] = r
				}
				observer.OnRunDone(info, r.Summary, nil)
			}
		}()
	}
	wg.Wait()

	ctxErr := ctx.Err()
	if failIdx >= 0 && ctxErr == nil {
		return nil, fmt.Errorf("study %s: %s: %w", st.Name, g.cells[failIdx].Label(), failErr)
	}
	res, err := g.Result(sums, done)
	if err != nil {
		return nil, err
	}
	res.Full = full
	return res, ctxErr
}
