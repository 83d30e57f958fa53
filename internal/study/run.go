package study

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"napawine/internal/experiment"
	"napawine/internal/runner"
)

// RunInfo identifies one grid cell to an Observer: its position in the
// battery and its axis coordinates.
type RunInfo struct {
	// Index is the cell's 0-based position in grid order; Total is the
	// grid size.
	Index, Total int

	App        string
	Strategy   string // "" = the profile's own
	Scenario   string // "" = stationary
	Variant    string // "" = stock profile
	QueueDepth int    // 0 = unbounded uplink queues (congestion off)
	Seed       int64

	// Worker attributes the cell's execution in a distributed run: the
	// fleet worker that leased it, or "spool" for a cell restored from a
	// checkpoint. Empty for local (in-process) execution. Attribution
	// only — Worker never participates in cell identity, labels or
	// digests, so a cell is the same cell whoever computes it.
	Worker string
}

// info is the one place a cell becomes a RunInfo, so Run's callbacks and
// RunInfos' pre-enumeration can never disagree about a cell's identity.
func (c cell) info(total int) RunInfo {
	return RunInfo{
		Index: c.index, Total: total,
		App: c.app, Strategy: c.strategy, Scenario: c.scnLabel,
		Variant: c.varName, QueueDepth: c.depth, Seed: c.seed,
	}
}

// RunInfos enumerates the study's grid in execution order without running
// anything — the same RunInfo values, Index and Total included, that Run
// will later hand to observers. Dashboards use it to pre-populate a
// pending-cell grid before the first OnRunStart fires.
func (st *Study) RunInfos() ([]RunInfo, error) {
	cells, err := st.resolveGrid()
	if err != nil {
		return nil, err
	}
	infos := make([]RunInfo, len(cells))
	for i, c := range cells {
		infos[i] = c.info(len(cells))
	}
	return infos, nil
}

// Label renders the cell's non-default coordinates for progress lines.
func (r RunInfo) Label() string {
	s := r.App
	if r.Variant != "" {
		s += "/" + r.Variant
	}
	if r.Strategy != "" {
		s += " " + r.Strategy
	}
	if r.Scenario != "" {
		s += " @" + r.Scenario
	}
	if r.QueueDepth > 0 {
		s += " " + congestionLabel(r.QueueDepth)
	}
	return fmt.Sprintf("%s seed %d", s, r.Seed)
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
	return func(o *options) {
		if obs != nil {
			o.observers = append(o.observers, obs)
		}
	}
}

// fanout composes the registered observers into one. Each delivery is
// panic-isolated per observer: a misbehaving dashboard callback must never
// take down the study (or starve the observers registered after it), so a
// panic is swallowed and that observer simply misses the event.
type fanout []Observer

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

// Cell is one executed grid point of a Result.
type Cell struct {
	// Index is the cell's position in grid order.
	Index int

	App        string
	Strategy   string // "" = the profile's own
	Scenario   string // "" = stationary
	Variant    string // "" = stock profile
	QueueDepth int    // 0 = unbounded uplink queues (congestion off)
	Seed       int64

	// Done reports whether the cell actually ran; cancellation leaves
	// trailing cells un-run with a zero Summary.
	Done    bool
	Summary experiment.Summary
}

// Coord reads the cell's coordinate along one axis, as rendered in tables
// (seed as digits, empty coordinates as "default"/"stationary"/"stock",
// queue depth 0 as "off").
func (c Cell) Coord(ax Axis) string {
	return cell{app: c.App, strategy: c.Strategy, scnLabel: c.Scenario,
		varName: c.Variant, depth: c.QueueDepth, seed: c.Seed}.coord(ax)
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
// dispatched through runner.ParallelCtx and reduced to its summary inside
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
	cells, err := st.resolveGrid()
	if err != nil {
		return nil, err
	}
	var observer Observer
	if len(o.observers) > 0 {
		observer = fanout(o.observers)
	}

	type out struct {
		sum  experiment.Summary
		full *experiment.Result
		done bool
	}
	total := len(cells)
	// failed gates cell dispatch; firstErr records the lowest-grid-index
	// real failure under its own lock, because concurrent workers can
	// observe the flag in any order relative to their own dequeue — an
	// in-flight low-index cell may return the skip sentinel after a
	// high-index cell stored the flag, so the runner's first-error-by-index
	// cannot be trusted to be a real one.
	var failed atomic.Bool
	var failMu sync.Mutex
	failIdx, firstErr := -1, error(nil)
	outs, err := runner.ParallelCtx(ctx, cells, o.workers, func(ctx context.Context, c cell) (out, error) {
		if failed.Load() {
			return out{}, errCellSkipped
		}
		info := c.info(total)
		if observer != nil {
			observer.OnRunStart(info)
		}
		cfg, err := c.config(st)
		if err == nil {
			if observer != nil && c.scn != nil {
				obs := observer
				cfg.OnSample = func(s experiment.SeriesSample) { obs.OnSample(info, s) }
			}
			var r *experiment.Result
			if r, err = experiment.RunCtx(ctx, cfg); err == nil {
				sum := experiment.Summarize(r)
				if observer != nil {
					observer.OnRunDone(info, sum, nil)
				}
				res := out{sum: sum, done: true}
				if o.keepFull {
					res.full = r
				}
				return res, nil
			}
		}
		failed.Store(true)
		wrapped := fmt.Errorf("%s: %w", info.Label(), err)
		failMu.Lock()
		if failIdx == -1 || c.index < failIdx {
			failIdx, firstErr = c.index, wrapped
		}
		failMu.Unlock()
		if observer != nil {
			observer.OnRunDone(info, experiment.Summary{}, err)
		}
		return out{}, wrapped
	})

	res := &Result{Study: st, Seeds: st.SeedList(), Cells: make([]Cell, len(cells))}
	if o.keepFull {
		res.Full = make([]*experiment.Result, len(cells))
	}
	for i, c := range cells {
		res.Cells[i] = Cell{
			Index: c.index,
			App:   c.app, Strategy: c.strategy, Scenario: c.scnLabel,
			Variant: c.varName, QueueDepth: c.depth, Seed: c.seed,
			Done: outs[i].done, Summary: outs[i].sum,
		}
		if o.keepFull {
			res.Full[i] = outs[i].full
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			// Cancellation: the partial result is well-formed and useful.
			return res, ctx.Err()
		}
		// Prefer the tracked first real failure over the runner's
		// first-by-index error, which may be a skip sentinel (see above).
		if firstErr != nil {
			return nil, fmt.Errorf("study %s: %w", st.Name, firstErr)
		}
		return nil, fmt.Errorf("study %s: %w", st.Name, err)
	}
	return res, nil
}
