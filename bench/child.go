package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"napawine/internal/access"
	"napawine/internal/apps"
	"napawine/internal/dash"
	"napawine/internal/experiment"
	"napawine/internal/fleet"
	"napawine/internal/scenario"
	"napawine/internal/sim"
	"napawine/internal/study"
	"napawine/internal/world"
)

// minContinuity is the end-of-run playout continuity below which a run or
// cell counts as failed: the swarm did not sustain the stream, so its host
// time is not the cost of a working simulation.
const minContinuity = 0.95

// gridWorkers is the cell parallelism of both grid workloads, fixed (not
// nproc) so the straggler tail and parallel efficiency mean the same thing
// on every box.
const gridWorkers = 2

// childOutput is what one child reports on stdout. Wall and the runtime
// deltas bracket only the timed call; the parent adds process-level wall,
// CPU and RSS from wait4.
type childOutput struct {
	WallS  float64 `json:"wall_s"`
	Digest string  `json:"digest"`
	// Ops counts operations (one run, or one grid cell each); Failed those
	// that erred or ended below minContinuity.
	Ops    int    `json:"ops"`
	Failed int    `json:"failed"`
	Error  string `json:"error,omitempty"`

	Events uint64 `json:"events"`
	// Simulated statistics: exact for a seed, so a speed-only change must
	// leave them identical. Continuity is the minimum across operations.
	Continuity  float64 `json:"continuity"`
	VideoBytes  int64   `json:"video_bytes"`
	Drops       int64   `json:"drops"`
	Retransmits int64   `json:"retransmits"`

	AllocMB   float64 `json:"alloc_mb"`
	Mallocs   uint64  `json:"mallocs"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`

	// CellWallMs is each grid cell's OnRunStart→OnRunDone host time.
	CellWallMs []float64 `json:"cell_wall_ms,omitempty"`
	// SSEDropped counts events the dashboard dropped for slow subscribers.
	SSEDropped int64 `json:"sse_dropped,omitempty"`

	// Traced round only.
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// childMain runs one workload once in this fresh process: stdin carries the
// childInput, stdout the childOutput.
func childMain() int {
	var in childInput
	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: decode input:", err)
		return 2
	}
	out, err := runChild(&in)
	if err != nil {
		out.Error = err.Error()
		out.Failed = max(out.Failed, 1)
		out.Ops = max(out.Ops, 1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: encode output:", err)
		return 2
	}
	return 0
}

func runChild(in *childInput) (*childOutput, error) {
	out := &childOutput{Continuity: 1}
	tr := newTracer(in.Trace)
	var err error
	switch in.Kind {
	case "run":
		err = childRun(in, out, tr)
	case "study", "fleet":
		err = childGrid(in, out, tr)
	default:
		err = fmt.Errorf("unknown kind %q", in.Kind)
	}
	out.Spans = tr.spans
	return out, err
}

// timed brackets the one call a workload is about: wall clock, allocator
// and GC deltas, and in the traced round a CPU profile folded by layer.
func timed(in *childInput, out *childOutput, f func() error) error {
	var prof bytes.Buffer
	if in.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	out.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	out.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	out.Mallocs = after.Mallocs - before.Mallocs
	out.GCCycles = after.NumGC - before.NumGC
	out.GCPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if in.Trace {
		pprof.StopCPUProfile()
		if err == nil {
			out.CPUShare, err = foldProfile(prof.Bytes())
		}
	}
	return err
}

func (in *runInput) config() (experiment.Config, error) {
	cfg := experiment.Default(in.App)
	cfg.Seed = in.Seed
	cfg.World.Seed = in.WorldSeed
	cfg.Duration = time.Duration(in.Duration)
	if in.JoinWindow > 0 {
		cfg.BackgroundJoinWindow = time.Duration(in.JoinWindow)
	}
	if in.Peers > 0 {
		cfg.World.Peers = in.Peers
	}
	cfg.Shards = in.Shards
	if in.QueueDepth > 0 {
		cfg.Congestion = access.CongestionModel{QueueDepth: in.QueueDepth}
	}
	if len(in.Scenario) > 0 {
		spec, err := scenario.DecodeBytes(in.Scenario)
		if err != nil {
			return cfg, err
		}
		cfg.Scenario = spec
	}
	return cfg, nil
}

func childRun(in *childInput, out *childOutput, tr *tracer) error {
	if in.Run == nil {
		return fmt.Errorf("run kind without a run input")
	}
	cfg, err := in.Run.config()
	if err != nil {
		return err
	}
	if in.SetupOnly {
		return nil
	}
	out.Ops = 1

	var res *experiment.Result
	var tables bytes.Buffer
	err = timed(in, out, func() error {
		root := tr.begin("timed-call", 0)
		defer tr.end(root)
		sp := tr.begin("experiment.Run", root)
		var err error
		res, err = experiment.Run(cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("experiment.TableII-IV", root)
		defer tr.end(sp)
		return renderTables(&tables, res)
	})
	if err != nil {
		return err
	}
	if in.Trace {
		// The traced extras come after the timed call, so that it starts on
		// the same cold heap as its untraced pair and trace_overhead_pct is
		// the cost of tracing, not the gain of a grown heap.
		sp := tr.begin("experiment.Summarize", 0)
		experiment.Summarize(res)
		tr.end(sp)
		if err := traceReplicas(cfg, tr); err != nil {
			return err
		}
	}

	fmt.Fprintf(&tables, "events %d\n", res.Events)
	digest := sha256.Sum256(tables.Bytes())
	out.Digest = hex.EncodeToString(digest[:])
	out.Events = res.Events
	out.Continuity = res.MeanContinuity
	out.VideoBytes = res.VideoBytes
	out.Drops = res.Drops
	out.Retransmits = res.Retransmits
	if res.MeanContinuity < minContinuity {
		out.Failed = 1
	}
	return nil
}

// renderTables writes the paper's Tables II–IV of one run, the reduction
// every `napawine -exp` user waits for after the simulation.
func renderTables(w io.Writer, res *experiment.Result) error {
	one := []*experiment.Result{res}
	for _, tb := range []interface{ Render(io.Writer) error }{
		experiment.TableII(one), experiment.TableIII(one), experiment.TableIV(one),
	} {
		if err := tb.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// traceReplicas rebuilds, under spans of their own, the two set-up stages
// experiment.Run performs internally — world synthesis and overlay
// population — so the trace shows what share of the timed call they are
// without a hook inside the program.
func traceReplicas(cfg experiment.Config, tr *tracer) error {
	spec := cfg.World
	if cfg.Scenario != nil && spec.ExtraPeers == 0 {
		spec.ExtraPeers = int(cfg.Scenario.ExtraPeerFactor * float64(spec.Peers))
	}
	root := tr.begin("replicas", 0)
	defer tr.end(root)
	sp := tr.begin("world.Build", root)
	w, err := world.Build(spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	prof, err := apps.ByName(cfg.App)
	if err != nil {
		return err
	}
	sp = tr.begin("overlay.populate", root)
	net, _, _ := populate(sim.New(cfg.Seed), w, prof)
	for _, p := range w.Probes {
		net.AddNode(p.Host, p.Link, prof)
	}
	tr.end(sp)
	return nil
}

// cellTimes is the harness's study.Observer: host-time spans per grid cell,
// attached to both grid workloads so they run the same callbacks.
type cellTimes struct {
	tr *tracer

	mu     sync.Mutex
	parent int
	start  map[int]time.Time
	spans  map[int]int
	walls  []float64
	fails  int
	min    float64
	sums   struct {
		events             uint64
		video, drops, retx int64
	}
}

func newCellTimes(tr *tracer) *cellTimes {
	return &cellTimes{tr: tr, start: map[int]time.Time{}, spans: map[int]int{}, min: 1}
}

// setParent names the span the cells' spans hang under.
func (c *cellTimes) setParent(id int) {
	c.mu.Lock()
	c.parent = id
	c.mu.Unlock()
}

func (c *cellTimes) OnRunStart(info study.RunInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start[info.Index] = time.Now()
	c.spans[info.Index] = c.tr.begin("cell "+info.Label(), c.parent)
}

func (c *cellTimes) OnRunDone(info study.RunInfo, sum experiment.Summary, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tr.end(c.spans[info.Index])
	if t, ok := c.start[info.Index]; ok {
		c.walls = append(c.walls, time.Since(t).Seconds()*1e3)
	}
	if err != nil || sum.MeanContinuity < minContinuity {
		c.fails++
	}
	if err == nil {
		c.min = min(c.min, sum.MeanContinuity)
		c.sums.events += sum.Events
		c.sums.video += sum.VideoBytes
		c.sums.drops += sum.Drops
		c.sums.retx += sum.Retransmits
	}
}

func (c *cellTimes) OnSample(study.RunInfo, experiment.SeriesSample) {}

func childGrid(in *childInput, out *childOutput, tr *tracer) error {
	st, err := study.DecodeBytes(in.Study)
	if err != nil {
		return err
	}
	cells := newCellTimes(tr)

	// run executes the grid under a span that parents the cells' spans.
	var run func(root int) (*study.Result, error)
	if in.Kind == "study" {
		run = func(root int) (*study.Result, error) {
			sp := tr.begin("study.Run", root)
			defer tr.end(sp)
			cells.setParent(sp)
			return study.Run(context.Background(), st, study.WithWorkers(gridWorkers), study.WithObserver(cells))
		}
	} else {
		sp := tr.begin("fleet.bring-up", 0)
		fl, err := startFleet(st, cells)
		tr.end(sp)
		if err != nil {
			return err
		}
		defer func() {
			sp := tr.begin("fleet.Close", 0)
			out.SSEDropped = fl.close()
			tr.end(sp)
		}()
		run = func(root int) (*study.Result, error) {
			sp := tr.begin("fleet.Wait", root)
			defer tr.end(sp)
			cells.setParent(sp)
			return fl.run()
		}
	}
	if in.SetupOnly {
		return nil
	}
	out.Ops = st.Runs()

	var res *study.Result
	err = timed(in, out, func() error {
		root := tr.begin("timed-call", 0)
		defer tr.end(root)
		var err error
		if res, err = run(root); err != nil {
			return err
		}
		sp := tr.begin("study.ComparisonTable", root)
		defer tr.end(sp)
		return res.ComparisonTable().Render(io.Discard)
	})
	if err != nil {
		out.Failed = out.Ops
		return err
	}

	var enc bytes.Buffer
	if err := study.EncodeResult(&enc, res); err != nil {
		return err
	}
	digest := sha256.Sum256(enc.Bytes())
	out.Digest = hex.EncodeToString(digest[:])
	out.CellWallMs = cells.walls
	out.Failed = cells.fails
	out.Continuity = cells.min
	out.Events = cells.sums.events
	out.VideoBytes = cells.sums.video
	out.Drops = cells.sums.drops
	out.Retransmits = cells.sums.retx
	return nil
}

// fleetRig is the fleet-grid set-up: coordinator on loopback, dashboard
// observing it, SSE subscribers draining /events. Workers start inside the
// timed call, because a joined worker leases its first cell at once.
type fleetRig struct {
	coord *fleet.Coordinator
	ds    *dash.Server
	subs  []*http.Response
	subWG sync.WaitGroup

	stopWorkers context.CancelFunc
	workerWG    sync.WaitGroup

	mu      sync.Mutex
	dropped int64
}

const sseSubscribers = 2

func startFleet(st *study.Study, obs study.Observer) (*fleetRig, error) {
	ds, err := dash.New("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fl := &fleetRig{ds: ds}
	if err := ds.BeginStudy(st); err != nil {
		fl.close()
		return nil, err
	}
	fl.coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", Observers: []study.Observer{ds, obs},
	})
	if err != nil {
		fl.close()
		return nil, err
	}
	for i := 0; i < sseSubscribers; i++ {
		resp, err := http.Get("http://" + ds.Addr() + "/events")
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.subs = append(fl.subs, resp)
		fl.subWG.Add(1)
		go fl.drain(resp.Body)
	}
	return fl, nil
}

// drain reads one SSE stream to its end, adding up the dashboard's own
// "drop" notices.
func (fl *fleetRig) drain(body io.Reader) {
	defer fl.subWG.Done()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	drop := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: drop":
			drop = true
		case drop && len(line) > 6 && line[:6] == "data: ":
			var d struct {
				Dropped int64 `json:"dropped"`
			}
			if json.Unmarshal([]byte(line[6:]), &d) == nil {
				fl.mu.Lock()
				fl.dropped += d.Dropped
				fl.mu.Unlock()
			}
			drop = false
		}
	}
}

// run joins the workers and harvests the grid. A worker that fails takes
// the wait down with it instead of leaving it to hang.
func (fl *fleetRig) run() (*study.Result, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	fl.stopWorkers = func() { cancel(nil) }
	for i := 0; i < gridWorkers; i++ {
		fl.workerWG.Add(1)
		go func() {
			defer fl.workerWG.Done()
			err := fleet.RunWorker(ctx, fleet.WorkerConfig{
				Addr: fl.coord.Addr(), Name: fmt.Sprintf("w%d", i), Workers: 1, ExplicitWorkers: true,
			})
			if err != nil && ctx.Err() == nil {
				cancel(err)
			}
		}()
	}
	res, err := fl.coord.Wait(ctx)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return nil, err
	}
	return res, nil
}

// close tears the rig down and reports the subscribers' dropped events.
// Workers go first: one idling between lease polls would otherwise redial
// the closed coordinator until its budget ran out.
func (fl *fleetRig) close() int64 {
	if fl.stopWorkers != nil {
		fl.stopWorkers()
		fl.workerWG.Wait()
	}
	if fl.coord != nil {
		_ = fl.coord.Close()
	}
	_ = fl.ds.Close()
	for _, resp := range fl.subs {
		resp.Body.Close()
	}
	fl.subWG.Wait()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.dropped
}
