package study

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// cancellation never start.
	OnRunStart(RunInfo)
	// OnRunDone fires when the cell finishes: with its summary, or with
	// the error that stopped it (ctx.Err() for cancelled cells).
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

// errCellSkipped marks cells never started because an earlier cell failed.
var errCellSkipped = errors.New("study: cell skipped after an earlier failure")

// Run executes the study: every grid cell is one independent experiment
// dispatched through parallelCtx and reduced to its summary inside
// the worker, so memory stays bounded by the worker count (unless
// WithFullResults asks otherwise).
//
// Cancellation: when ctx is done, in-flight cells halt promptly
// (experiment.RunCtx polls the context on the engine clock), unstarted
// cells never run, and Run returns the partial Result — completed cells
// have Done set and well-formed summaries — alongside ctx.Err().
//
// Any other cell error fails the study: no further cells start (cells
// already in flight run to completion), and Run returns the first error in
// grid order with a nil Result.
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

	// Each worker writes only its own cell's slot; parallelCtx joins every
	// worker before it returns.
	sums := make([]experiment.Summary, len(g.cells))
	done := make([]bool, len(g.cells))
	var full []*experiment.Result
	if o.keepFull {
		full = make([]*experiment.Result, len(g.cells))
	}
	// failed gates cell dispatch; firstErr records the lowest-grid-index
	// real failure under its own lock, because concurrent workers can
	// observe the flag in any order relative to their own dequeue — an
	// in-flight low-index cell may return the skip sentinel after a
	// high-index cell stored the flag, so parallelCtx's first-error-by-index
	// cannot be trusted to be a real one.
	var failed atomic.Bool
	var failMu sync.Mutex
	failIdx, firstErr := -1, error(nil)
	_, runErr := parallelCtx(ctx, g.cells, o.workers, func(ctx context.Context, c cell) (struct{}, error) {
		if failed.Load() {
			return struct{}{}, errCellSkipped
		}
		info := g.info(c)
		observer.OnRunStart(info)
		r, err := c.run(ctx, st, func(s experiment.SeriesSample) { observer.OnSample(info, s) })
		if err != nil {
			failed.Store(true)
			wrapped := fmt.Errorf("%s: %w", c.Label(), err)
			failMu.Lock()
			if failIdx == -1 || c.Index < failIdx {
				failIdx, firstErr = c.Index, wrapped
			}
			failMu.Unlock()
			observer.OnRunDone(info, experiment.Summary{}, err)
			return struct{}{}, wrapped
		}
		sums[c.Index], done[c.Index] = r.Summary, true
		observer.OnRunDone(info, sums[c.Index], nil)
		if o.keepFull {
			full[c.Index] = r
		}
		return struct{}{}, nil
	})

	res, err := g.Result(sums, done)
	if err != nil {
		return nil, err
	}
	res.Full = full
	if runErr != nil {
		if ctx.Err() != nil {
			// Cancellation: the partial result is well-formed and useful.
			return res, ctx.Err()
		}
		// Prefer the tracked first real failure over parallelCtx's
		// first-by-index error, which may be a skip sentinel (see above).
		if firstErr != nil {
			return nil, fmt.Errorf("study %s: %w", st.Name, firstErr)
		}
		return nil, fmt.Errorf("study %s: %w", st.Name, runErr)
	}
	return res, nil
}
