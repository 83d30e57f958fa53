package study

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/scenario"
)

// scenarioSpecEmptyArrivals validates but cannot compile: its arrivals
// window has no deferred pool to draw from (the study sets no
// ExtraPeerFactor), so every cell fails at run time, not validate time.
var scenarioSpecEmptyArrivals = scenario.Spec{
	Name:   "doomed",
	Events: []scenario.Event{{Kind: scenario.Arrivals, From: 0.1, To: 0.2}},
}

// miniStudy is a small but non-trivial grid: 1 app × 2 strategies × 2
// seeds at miniature scale, cheap enough to run repeatedly.
func miniStudy() *Study {
	return &Study{
		Name:        "mini",
		Description: "test grid",
		Apps:        []string{"TVAnts"},
		Strategies:  []string{"urgent-random", "rarest"},
		Seeds:       []int64{3, 4},
		Duration:    Duration(20 * time.Second),
		PeerFactor:  0.05,
	}
}

func renderStudy(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	if err := res.ComparisonTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := res.PivotTable(Metrics()[0], AxisStrategy, AxisSeed).Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRunDeterministicAcrossWorkers: the same study renders byte-identical
// tables no matter how its cells are spread over workers — the study layer
// inherits the engine's determinism contract.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		res, err := Run(context.Background(), miniStudy(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return renderStudy(t, res)
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Errorf("worker count changed study output:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
	for _, want := range []string{"urgent-random", "rarest", "Continuity", "Source kbps", "Diffusion s"} {
		if !strings.Contains(serial, want) {
			t.Errorf("comparison table missing %q:\n%s", want, serial)
		}
	}
}

// TestRunCellsCarryCoordinates: every grid cell comes back Done with its
// axis coordinates and a well-formed summary.
func TestRunCellsCarryCoordinates(t *testing.T) {
	res, err := Run(context.Background(), miniStudy(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	if res.Trials() != 2 {
		t.Errorf("Trials = %d, want 2", res.Trials())
	}
	for i, c := range res.Cells {
		if !c.Done {
			t.Errorf("cell %d not done", i)
		}
		if c.Index != i || c.App != "TVAnts" {
			t.Errorf("cell %d coords wrong: %+v", i, c)
		}
		if c.Summary.Events == 0 || c.Summary.MeanContinuity == 0 {
			t.Errorf("cell %d summary malformed: %+v", i, c.Summary)
		}
		if c.Summary.SourceKbps <= 0 || c.Summary.DiffusionChunks == 0 {
			t.Errorf("cell %d missing comparison metrics: source %.1f kbps, %d diffusion chunks",
				i, c.Summary.SourceKbps, c.Summary.DiffusionChunks)
		}
	}
	if res.Full != nil {
		t.Error("full results retained without WithFullResults")
	}
}

// TestRunFullResults: WithFullResults retains the complete per-cell Result.
func TestRunFullResults(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{""}
	st.Seeds = []int64{3}
	res, err := Run(context.Background(), st, WithFullResults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Full) != 1 || res.Full[0] == nil {
		t.Fatalf("Full = %v", res.Full)
	}
	if res.Full[0].App != "TVAnts" || len(res.Full[0].Observations) == 0 {
		t.Errorf("full result malformed: %+v", res.Full[0].App)
	}
}

// countingObserver records callbacks under a lock and can cancel the run
// after the first completed cell.
type countingObserver struct {
	mu       sync.Mutex
	starts   int
	dones    int
	errs     int
	samples  int
	cancelAt int // cancel after this many OnRunDone calls (0 = never)
	cancel   context.CancelFunc
}

func (o *countingObserver) OnRunStart(RunInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.starts++
}

func (o *countingObserver) OnRunDone(_ RunInfo, _ experiment.Summary, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dones++
	if err != nil {
		o.errs++
	}
	if o.cancelAt > 0 && o.dones >= o.cancelAt && o.cancel != nil {
		o.cancel()
	}
}

func (o *countingObserver) OnSample(_ RunInfo, _ experiment.SeriesSample) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.samples++
}

// TestObserverStreamsRunsAndSeries: every cell reports start and done, and
// scenario cells stream their per-bucket samples live.
func TestObserverStreamsRunsAndSeries(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{""}
	st.Scenarios = []Scenario{{Name: "flashcrowd"}}
	obs := &countingObserver{}
	res, err := Run(context.Background(), st, WithObserver(obs), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.starts != 2 || obs.dones != 2 || obs.errs != 0 {
		t.Errorf("observer saw %d starts, %d dones, %d errors; want 2, 2, 0",
			obs.starts, obs.dones, obs.errs)
	}
	if obs.samples == 0 {
		t.Error("observer streamed no time-series samples for a scenario study")
	}
	// The streamed samples are the same ones the summaries retain.
	total := 0
	for _, c := range res.Cells {
		total += len(c.Summary.Series)
	}
	if obs.samples != total {
		t.Errorf("streamed %d samples, summaries retain %d", obs.samples, total)
	}
}

// TestMultiObserverFanout pins the multi-observer contract: repeated
// WithObserver options accumulate, every observer sees every callback in
// registration order, a panicking observer is isolated (the study and the
// observers after it are unharmed), and nil observers are ignored.
func TestMultiObserverFanout(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{""}
	st.Scenarios = []Scenario{{Name: "steady"}}

	var mu sync.Mutex
	var order []string
	record := func(tag string) { mu.Lock(); order = append(order, tag); mu.Unlock() }

	panicky := observerFuncs{
		start: func(RunInfo) { record("a"); panic("observer a misbehaves") },
		done:  func(RunInfo, experiment.Summary, error) { panic("observer a misbehaves") },
	}
	second := &countingObserver{}
	third := observerFuncs{start: func(RunInfo) { record("c") }}

	res, err := Run(context.Background(), st,
		WithObserver(panicky),
		WithObserver(nil),
		WithObserver(second),
		WithObserver(third),
		WithWorkers(1))
	if err != nil {
		t.Fatalf("a panicking observer failed the study: %v", err)
	}
	for _, c := range res.Cells {
		if !c.Done {
			t.Errorf("cell %d did not run", c.Index)
		}
	}
	second.mu.Lock()
	defer second.mu.Unlock()
	if second.starts != len(res.Cells) || second.dones != len(res.Cells) || second.samples == 0 {
		t.Errorf("observer after the panicking one missed events: %d starts, %d dones, %d samples",
			second.starts, second.dones, second.samples)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order)%2 != 0 {
		t.Fatalf("start fan-out misfired: order %v", order)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "c" {
			t.Errorf("observers fired out of registration order: %v", order)
			break
		}
	}
}

// observerFuncs adapts bare funcs to Observer; nil fields are no-ops.
type observerFuncs struct {
	start  func(RunInfo)
	done   func(RunInfo, experiment.Summary, error)
	sample func(RunInfo, experiment.SeriesSample)
}

func (o observerFuncs) OnRunStart(i RunInfo) {
	if o.start != nil {
		o.start(i)
	}
}

func (o observerFuncs) OnRunDone(i RunInfo, s experiment.Summary, err error) {
	if o.done != nil {
		o.done(i, s, err)
	}
}

func (o observerFuncs) OnSample(i RunInfo, s experiment.SeriesSample) {
	if o.sample != nil {
		o.sample(i, s)
	}
}

// TestRunInfosMatchesObservedCells: RunInfos pre-enumerates exactly the
// RunInfo values Run later delivers, in grid order.
func TestRunInfosMatchesObservedCells(t *testing.T) {
	st := miniStudy()
	infos, err := st.RunInfos()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]RunInfo)
	obs := observerFuncs{start: func(i RunInfo) { mu.Lock(); seen[i.Index] = i; mu.Unlock() }}
	if _, err := Run(context.Background(), st, WithObserver(obs)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(infos) {
		t.Fatalf("RunInfos enumerated %d cells, Run started %d", len(infos), len(seen))
	}
	for i, want := range infos {
		if want.Index != i || want.Total != len(infos) {
			t.Errorf("infos[%d] has Index=%d Total=%d", i, want.Index, want.Total)
		}
		if got := seen[i]; got != want {
			t.Errorf("cell %d: RunInfos says %+v, Run delivered %+v", i, want, got)
		}
	}
}

// TestRunCancellationMidBattery is the cancellation contract: a study
// cancelled mid-flight returns ctx.Err() promptly, leaks no goroutines,
// and hands back well-formed partial results for the cells that finished.
func TestRunCancellationMidBattery(t *testing.T) {
	before := runtime.NumGoroutine()

	st := miniStudy()
	st.Seeds = []int64{3, 4, 5, 6}
	st.Strategies = []string{"urgent-random", "rarest", "deadline"} // 12 cells
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &countingObserver{cancelAt: 1, cancel: cancel}

	start := time.Now()
	res, err := Run(ctx, st, WithWorkers(2), WithObserver(obs))
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if len(res.Cells) != 12 {
		t.Fatalf("partial result has %d cells, want 12", len(res.Cells))
	}
	done, undone := 0, 0
	for _, c := range res.Cells {
		if c.Done {
			done++
			if c.Summary.Events == 0 {
				t.Errorf("done cell %d has an empty summary", c.Index)
			}
		} else {
			undone++
			if c.Summary.Events != 0 {
				t.Errorf("skipped cell %d has a non-zero summary", c.Index)
			}
		}
	}
	if done == 0 {
		t.Error("no cell completed before the cancel (observer cancels after the first)")
	}
	if undone == 0 {
		t.Error("cancellation stopped nothing: every cell ran to completion")
	}
	// Promptness: the 12-cell battery would take many times longer than
	// the couple of runs that were in flight at cancel time.
	if elapsed > 30*time.Second {
		t.Errorf("cancelled run took %v", elapsed)
	}
	// The partial result still renders.
	if tab := res.ComparisonTable(); tab == nil || len(tab.Rows) == 0 {
		t.Error("partial result does not render")
	}

	// No goroutine leaks: the worker pool must be fully joined. Allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunPreCancelled: a study under an already-cancelled context runs
// nothing and says so.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs := &countingObserver{}
	res, err := Run(ctx, miniStudy(), WithObserver(obs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, c := range res.Cells {
		if c.Done {
			t.Error("pre-cancelled study completed a cell")
		}
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.starts != 0 {
		t.Errorf("pre-cancelled study started %d cells", obs.starts)
	}
}

// TestRunCellErrorStopsDispatch: a cell failure at run time (here, an
// arrivals event over an empty deferred pool, which Validate cannot see)
// must stop further cells from starting; the first error in grid order
// comes back, not hours of doomed simulation.
func TestRunCellErrorStopsDispatch(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{""}
	st.Seeds = []int64{3, 4, 5, 6, 7, 8}
	// ExtraPeerFactor 0 ⇒ no deferred pool ⇒ Compile fails inside every
	// cell's experiment.
	st.Scenarios = []Scenario{{Spec: &scenarioSpecEmptyArrivals}}
	obs := &countingObserver{}
	res, err := Run(context.Background(), st, WithWorkers(1), WithObserver(obs))
	if err == nil {
		t.Fatal("doomed study reported success")
	}
	if res != nil {
		t.Error("failed (non-cancelled) study returned a result")
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.starts != 1 || obs.dones != 1 || obs.errs != 1 {
		t.Errorf("dispatch not stopped after first failure: %d starts, %d dones, %d errors; want 1, 1, 1",
			obs.starts, obs.dones, obs.errs)
	}
}

// TestRunCellErrorNamesTheFirstCellOnce: whatever the worker count, the
// study error is the first failing cell in grid order (cell 0 is always
// taken first), named once by its label.
func TestRunCellErrorNamesTheFirstCellOnce(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{""}
	st.Seeds = []int64{3, 4, 5, 6, 7, 8, 9, 10}
	st.Scenarios = []Scenario{{Spec: &scenarioSpecEmptyArrivals}}
	g, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	label := g.Infos()[0].Label()
	for workers := 1; workers <= 8; workers *= 2 {
		_, err := Run(context.Background(), st, WithWorkers(workers))
		if err == nil {
			t.Fatalf("workers=%d: doomed study reported success", workers)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "study mini: "+label+": ") || strings.Count(msg, label) != 1 {
			t.Errorf("workers=%d: error does not name cell 0 (%s) exactly once: %v", workers, label, err)
		}
		if !strings.Contains(err.Error(), "doomed") {
			t.Errorf("workers=%d: error does not name the failing scenario: %v", workers, err)
		}
	}
}

// TestRunCellPanicIsACellFailure: a cell that panics (here its sample
// callback, at a flashcrowd cell's first time-series bucket) fails like any
// other cell: Grid.RunCell — the fleet worker's entry — returns the panic as
// the cell's error instead of panicking. Run labels and dispatches such an
// error as it does every cell error (TestRunCellErrorStopsDispatch,
// TestRunCellErrorNamesTheFirstCellOnce).
func TestRunCellPanicIsACellFailure(t *testing.T) {
	st := miniStudy()
	st.Scenarios = []Scenario{{Name: "flashcrowd"}}
	g, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.RunCell(context.Background(), 0, func(experiment.SeriesSample) { panic("panicky sampler") })
	if err == nil || err.Error() != "panic: panicky sampler" {
		t.Fatalf("RunCell on a panicking cell returned %v, want the panic as an error", err)
	}
}

// TestRunWorkerBound: WithWorkers(n) bounds the cells between OnRunStart
// and OnRunDone at n, and a non-positive count (GOMAXPROCS) or one past the
// grid size still runs every cell.
func TestRunWorkerBound(t *testing.T) {
	st := miniStudy()
	st.Seeds = []int64{3, 4, 5}
	st.Duration = Duration(10 * time.Second)
	cells := st.Runs()
	for _, workers := range []int{1, 2, 0, cells + 5} {
		var mu sync.Mutex
		active, peak, dones := 0, 0, 0
		obs := observerFuncs{
			start: func(RunInfo) {
				mu.Lock()
				defer mu.Unlock()
				active++
				peak = max(peak, active)
			},
			done: func(RunInfo, experiment.Summary, error) {
				mu.Lock()
				defer mu.Unlock()
				active--
				dones++
			},
		}
		res, err := Run(context.Background(), st, WithWorkers(workers), WithObserver(obs))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, c := range res.Cells {
			if !c.Done {
				t.Errorf("workers=%d: cell %d did not run", workers, c.Index)
			}
		}
		if dones != cells {
			t.Errorf("workers=%d: %d cells finished, want %d", workers, dones, cells)
		}
		if workers > 0 && workers < cells && peak > workers {
			t.Errorf("workers=%d: %d cells ran at once", workers, peak)
		}
	}
}

// TestCancellableEventsMatchBackground: wiring up a cancellable context
// (Ctrl-C support) must not shift the reported Events metric — the
// cancellation poll's own firings are excluded, keeping tables
// byte-identical to context-free runs.
func TestCancellableEventsMatchBackground(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{""}
	st.Seeds = []int64{3}
	plain, err := Run(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancellable, err := Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if p, c := plain.Cells[0].Summary.Events, cancellable.Cells[0].Summary.Events; p != c {
		t.Errorf("Events drifted under a cancellable context: background %d, cancellable %d", p, c)
	}
}

// TestRunValidationFailsFast: a bad axis value dies before any simulation.
func TestRunValidationFailsFast(t *testing.T) {
	st := miniStudy()
	st.Strategies = []string{"newest"}
	start := time.Now()
	_, err := Run(context.Background(), st)
	if err == nil || !strings.Contains(err.Error(), "newest") {
		t.Errorf("bad strategy survived: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("validation burned simulation time")
	}
}
