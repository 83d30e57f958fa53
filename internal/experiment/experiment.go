// Package experiment orchestrates full paper experiments: build a world
// (Table I testbed + background swarm), run one application's swarm for a
// virtual hour (or any horizon), capture packet traces at every probe, and
// reduce them — through internal/analysis and internal/core — into the
// numbers behind Tables II–IV and Figures 1–2.
package experiment

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"napawine/internal/access"
	"napawine/internal/analysis"
	"napawine/internal/apps"
	"napawine/internal/chunkstream"
	"napawine/internal/core"
	"napawine/internal/overlay"
	"napawine/internal/packet"
	"napawine/internal/scenario"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/stats"
	"napawine/internal/topology"
	"napawine/internal/units"
	"napawine/internal/world"
)

// Config parameterizes one experiment run.
type Config struct {
	App      string // "PPLive", "SopCast" or "TVAnts"
	Seed     int64
	Duration time.Duration // virtual run length

	// Profile, when non-nil, overrides the stock profile selected by App.
	// This is how ablation variants (apps.Variant) and chunk strategies
	// (Profile.ChunkStrategy) are run: the world and scale still come from
	// App's defaults, the behaviour from Profile.
	Profile *overlay.Profile

	// Scenario, when non-nil, injects a declarative workload timeline
	// (flash crowd, diurnal wave, partition, tracker outage, ...) into the
	// run and turns on per-bucket time-series sampling (Result.Series).
	// Its ExtraPeerFactor sizes World.ExtraPeers unless the caller already
	// set that explicitly.
	Scenario *scenario.Spec

	// OnSample, when non-nil, streams each time-series bucket to the
	// caller the moment the sampler records it — the live-progress hook
	// the study Observer rides on. Only scenario runs sample buckets, so
	// the callback never fires without a Scenario. It runs on the
	// simulation goroutine; implementations must not block.
	OnSample func(SeriesSample)

	World world.Spec

	// Overlay constants (zero values select defaults).
	BufferWindow  int
	TrackerBatch  int
	JitterMax     time.Duration
	UplinkBusyCap time.Duration

	// Congestion bounds every peer's uplink queue (tail-drop loss beyond
	// the depth) and switches the overlay to its congestion-signal path:
	// timeout backoff, retransmits, loss-aware partner weighting. The zero
	// value keeps today's unbounded FIFO and the byte-identical defaults.
	Congestion access.CongestionModel

	// Shards splits the swarm across that many parallel shard engines, one
	// goroutine each, partitioned by AS (every AS lives whole on one
	// shard) and coordinated in conservative lockstep windows bounded by
	// the minimum inter-shard one-way delay. 0 or 1 runs the serial engine
	// and is byte-identical to it; N > 1 is deterministic for that N but
	// draws different (decorrelated) RNG streams, so its figures differ
	// from the serial run the way a different seed's would. The count is
	// clamped to the number of populated ASes.
	Shards int

	// BackgroundJoinWindow staggers the background peers' first joins.
	BackgroundJoinWindow time.Duration

	// StoreTraces, when non-empty, writes every probe's capture to
	// <dir>/<probe-label>.nwt in the binary trace format — the paper's
	// workflow of archiving raw captures for offline analysis (the
	// NAPA-WINE traces were "made available to the research community").
	StoreTraces string

	// Contrib is the contributor heuristic's floor.
	Contrib core.ContribThresholds
}

// Default returns the calibrated configuration for one application. World
// sizes are scaled down from the paper's populations (PPLive ≫ SopCast ≫
// TVAnts, §II Table II) to laptop scale while preserving the ratios that
// drive every percentage in the tables.
func Default(app string) Config {
	cfg := Config{App: app, Seed: 1, JitterMax: 2 * time.Millisecond}
	cfg.fillDefaults()
	cfg.World = world.Spec{
		Seed:              1,
		HighBwFraction:    0.70,
		NATFraction:       0.25,
		FWFraction:        0.05,
		ProbeASBackground: 8,
	}
	switch app {
	case "PPLive":
		cfg.World.Peers = 1400
	case "SopCast":
		cfg.World.Peers = 550
	case "TVAnts":
		cfg.World.Peers = 240
	default:
		cfg.World.Peers = 500
	}
	return cfg
}

// ScalePeers scales the background population by factor (<= 0 leaves the
// default), flooring at 50 peers so a tiny factor still yields a viable
// swarm. Every study cell is sized by this one rule (Study.PeerFactor), so
// the same -scale means the same world for one seed and for a replicated run.
func (c *Config) ScalePeers(factor float64) {
	if factor <= 0 {
		return
	}
	c.World.Peers = int(float64(c.World.Peers) * factor)
	if c.World.Peers < 50 {
		c.World.Peers = 50
	}
}

// Nodes counts the overlay nodes a run of c builds: the source, the Table I
// probes, ProbeASBackground peers in each probe AS, the background and the
// deferred pool. It counts in floating point, so an absurd factor cannot
// wrap around. Each node takes a peer id, and ids stop at
// overlay.MaxPeerID: RunCtx refuses a larger run before it builds a world,
// and study.Validate refuses it for every cell.
func (c *Config) Nodes() float64 {
	n := 1 + float64(c.World.Peers) + c.deferred()
	probeASes := map[string]bool{}
	for _, s := range world.TableI() {
		n += float64(s.HighBw + len(s.Homes))
		probeASes[s.ASLabel] = true
	}
	return n + float64(len(probeASes)*c.World.ProbeASBackground)
}

// deferred sizes the deferred pool: World.ExtraPeers, or the scenario's
// ExtraPeerFactor share of the background when that is 0.
func (c *Config) deferred() float64 {
	if c.World.ExtraPeers == 0 && c.Scenario != nil {
		return math.Floor(c.Scenario.ExtraPeerFactor * float64(c.World.Peers))
	}
	return float64(c.World.ExtraPeers)
}

func (c *Config) fillDefaults() {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Minute
	}
	if c.BufferWindow <= 0 {
		c.BufferWindow = 90
	}
	if c.TrackerBatch <= 0 {
		c.TrackerBatch = 24
	}
	if c.UplinkBusyCap <= 0 {
		c.UplinkBusyCap = 2 * time.Second
	}
	if c.BackgroundJoinWindow <= 0 {
		c.BackgroundJoinWindow = 60 * time.Second
	}
	if c.Contrib.MinBytes == 0 {
		c.Contrib = core.DefaultContrib
	}
	// World.SubnetsPerAS stays 0 here on purpose: world.Build sizes the
	// address space from the final population (3 for small worlds, larger
	// for 10⁵-peer swarms), and Peers/ExtraPeers may still change after
	// fillDefaults (ScalePeers, scenario ExtraPeerFactor).
	if c.World.Seed == 0 {
		c.World.Seed = c.Seed
	}
}

// ProbeStats summarizes one vantage point, feeding Table II.
type ProbeStats struct {
	Probe     world.Probe
	RxKbps    float64 // all inbound bytes over the run
	TxKbps    float64
	AllPeers  int // distinct remote addresses seen
	ContribRx int // download contributors
	ContribTx int // upload contributors
}

// Result is everything one run produces: its Summary — the bounded numbers
// every table and study reads, filled in by RunCtx — plus the full
// observations, world and ledger behind them.
type Result struct {
	Summary
	Cfg   Config
	World *world.World

	// Observations across all probes (one entry per probe×peer pair).
	Observations []core.Observation

	PerProbe []ProbeStats

	// Ledger is ground truth for validation; analysis never reads it.
	Ledger *overlay.Ledger

	// Capture and RowBlocks count the probe spools' work and the
	// aggregators' blocks of rows and video rows: exact per seed, read by
	// nothing in the run and no part of Summary.
	Capture   sniffer.Counts
	RowBlocks int

	probeByAddr map[netip.Addr]world.Probe
}

// ProbeOf resolves a probe address to its testbed identity.
func (r *Result) ProbeOf(addr netip.Addr) (world.Probe, bool) {
	p, ok := r.probeByAddr[addr]
	return p, ok
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) { return RunCtx(context.Background(), cfg) }

// cancelPoll is how often (in virtual time) a cancellable run checks its
// context. Virtual seconds pass in wall-clock milliseconds, so a cancelled
// context stops the engine promptly without the engine ever knowing about
// contexts.
const cancelPoll = time.Second

// flushEvery is how often (in virtual time) every probe's spool hands its
// final records to the analysis sinks at one common instant. It bounds no
// memory — each spool drains itself as it fills (sniffer.Spool) — and stays
// because its firings are engine events: Summary.Events counts them and
// carries that count into rendered tables and every digest.
const flushEvery = 10 * time.Second

// Background churn: mean on and off periods of a consumer peer's session
// cycle (probes never churn, like the testbed). probeJoinWindow staggers the
// probes' joins at the start of the run.
const (
	churnMeanOn     = 150 * time.Second
	churnMeanOff    = 40 * time.Second
	probeJoinWindow = 20 * time.Second
)

// RunCtx executes one experiment under a context. Cancellation is polled on
// the engine's own clock every cancelPoll of virtual time: when ctx is
// done, the engine halts mid-run and RunCtx returns ctx.Err() with no
// Result. A context that can never be cancelled (ctx.Done() == nil, e.g.
// context.Background()) installs no poll events; cancellable runs subtract
// their poll firings from the reported event count — either way
// Result.Events (a rendered sweep/study metric) stays identical to a
// context-free Run, preserving the byte-identical-tables contract for
// callers that merely wire up Ctrl-C.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if err := cfg.Congestion.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if cfg.BufferWindow > chunkstream.MaxWindow {
		return nil, fmt.Errorf("experiment: BufferWindow %d is past chunkstream.MaxWindow %d", cfg.BufferWindow, chunkstream.MaxWindow)
	}
	prof := cfg.Profile
	if prof == nil {
		var err error
		prof, err = apps.ByName(cfg.App)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Scenario != nil {
		// Work on a private deep copy: the caller's Spec may be shared
		// across the parallel runs of a battery, and Run must leave it
		// bit-for-bit untouched no matter what compilation does.
		cfg.Scenario = cfg.Scenario.Clone()
		if err := cfg.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	if n := cfg.Nodes(); n > overlay.MaxPeerID+1 {
		return nil, fmt.Errorf("experiment: %.0f nodes need peer ids up to %.0f, past the limit of %d", n, n-1, overlay.MaxPeerID)
	}
	cfg.World.ExtraPeers = int(cfg.deferred())
	w, err := world.Build(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("experiment: world: %w", err)
	}

	// Shard layout: whole ASes bin-packed across the requested shard
	// count, window width from the closest inter-shard subnet pair (every
	// shard holds an AS, and any two subnets are a positive delay apart).
	// One shard degenerates to the serial engine (sim.NewSharded and
	// overlay.NewSharded collapse to their serial forms by construction).
	part, shards := partitionAS(w, cfg.Shards)
	var lookahead time.Duration
	if shards > 1 {
		lookahead = w.Topo.MinInterGroupDelay(part)
	}
	sh := sim.NewSharded(cfg.Seed, shards, lookahead)
	eng := sh.Global()
	cal := chunkstream.NewCalendar(apps.StreamRate, 48*units.KB)
	net := overlay.NewSharded(sh, w.Topo, overlay.Config{
		Calendar:      cal,
		BufferWindow:  cfg.BufferWindow,
		TrackerBatch:  cfg.TrackerBatch,
		JitterMax:     cfg.JitterMax,
		UplinkBusyCap: cfg.UplinkBusyCap,
		Congestion:    cfg.Congestion,
	}, part)

	source := net.AddSource(w.SourceHost, w.SourceLink, prof)

	type probeRT struct {
		probe world.Probe
		node  *overlay.Node
		spool *sniffer.Spool
		agg   *analysis.Aggregator
	}
	probes := make([]probeRT, 0, len(w.Probes))
	var traceFiles []*os.File
	var traceSinks []*sniffer.WriterSink
	defer func() {
		for _, f := range traceFiles {
			f.Close()
		}
	}()
	for _, p := range w.Probes {
		node := net.AddNode(p.Host, p.Link, prof)
		spool := net.AttachSniffer(node)
		agg := analysis.New(p.Host.Addr, analysis.DefaultConfig())
		spool.Capture().Attach(agg)
		if cfg.StoreTraces != "" {
			path := filepath.Join(cfg.StoreTraces, p.Label+".nwt")
			f, err := os.Create(path)
			if err != nil {
				return nil, fmt.Errorf("experiment: trace file: %w", err)
			}
			tw, err := packet.NewWriter(f, p.Host.Addr, cfg.App+"/"+p.Label)
			if err != nil {
				return nil, fmt.Errorf("experiment: trace header: %w", err)
			}
			sink := &sniffer.WriterSink{W: tw}
			spool.Capture().Attach(sink)
			traceFiles = append(traceFiles, f)
			traceSinks = append(traceSinks, sink)
		}
		probes = append(probes, probeRT{probe: p, node: node, spool: spool, agg: agg})
	}

	background := make([]*overlay.Node, 0, len(w.Background))
	for _, bg := range w.Background {
		background = append(background, net.AddNode(bg.Host, bg.Link, prof))
	}
	deferred := make([]*overlay.Node, 0, len(w.Deferred))
	for _, dp := range w.Deferred {
		deferred = append(deferred, net.AddNode(dp.Host, dp.Link, prof))
	}

	// Arrivals: source first, probes early, background staggered with
	// churn. All offsets flow from the seeded *global* engine RNG in node
	// order — a pure function of (seed, world), whatever the shard count —
	// while each join lands on its node's own shard engine.
	source.ScheduleJoin(0)
	rng := eng.Rand()
	for _, p := range probes {
		delay := time.Duration(rng.Int63n(int64(probeJoinWindow)))
		p.node.ScheduleJoin(delay)
	}
	for _, node := range background {
		first := time.Duration(rng.Int63n(int64(cfg.BackgroundJoinWindow)))
		meanOn := churnMeanOn
		if node.Link.HighBandwidth() {
			// Institutional peers (campus PCs, always-on boxes) hold
			// sessions much longer than consumer DSL viewers; session
			// stability is what lets locality-aware clients keep their
			// few same-AS partners once found.
			meanOn *= 4
		}
		node.ScheduleChurn(first, meanOn, churnMeanOff)
	}

	// Scenario timeline and its time-series sampler. Compiling after the
	// base arrival schedule keeps the engine-RNG consumption order (and
	// therefore byte-identical replay) well defined.
	var series *seriesRecorder
	if cfg.Scenario != nil {
		err := scenario.Compile(cfg.Scenario, scenario.Env{
			Eng:        eng,
			Net:        net,
			Horizon:    cfg.Duration,
			Background: background,
			Deferred:   deferred,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		series = recordSeries(eng, net, cfg.Scenario.BucketCount(), cfg.Duration, cfg.OnSample)
	}

	// Periodic spool flush: counted in Result.Events (see flushEvery).
	eng.Every(flushEvery, flushEvery, net.FlushCapturesBefore)

	var polls uint64
	if ctx.Done() != nil {
		eng.Every(cancelPoll, cancelPoll, func() {
			polls++
			if ctx.Err() != nil {
				sh.Stop()
			}
		})
	}

	sh.Run(cfg.Duration)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	net.FlushCaptures()
	for i, sink := range traceSinks {
		if sink.Err != nil {
			return nil, fmt.Errorf("experiment: trace write: %w", sink.Err)
		}
		if err := sink.W.Close(); err != nil {
			return nil, fmt.Errorf("experiment: trace close: %w", err)
		}
		if err := traceFiles[i].Sync(); err != nil {
			return nil, fmt.Errorf("experiment: trace sync: %w", err)
		}
	}

	// Reduce. The ledger view is the live ledger on one shard and a merged
	// snapshot of the per-shard ledgers otherwise.
	led := net.LedgerView()
	res := &Result{
		Summary: Summary{
			App:  cfg.App,
			Seed: cfg.Seed,
			// Poll firings are harness bookkeeping, not swarm activity; see
			// the RunCtx doc for why they are excluded from the metric.
			Events: sh.Processed() - polls,
		},
		Cfg:         cfg,
		World:       w,
		Ledger:      led,
		probeByAddr: make(map[netip.Addr]world.Probe, len(w.Probes)),
	}
	if cfg.Scenario != nil {
		res.Scenario = cfg.Scenario.Name
		res.Series = series.samples
	}
	probeSet := w.ProbeAddrs()
	secs := cfg.Duration.Seconds()
	var continuity stats.Accumulator
	// One entry per probe×peer pair: sized once, then each probe appends
	// its rows in place.
	pairs := 0
	for _, p := range probes {
		pairs += p.agg.PeerCount()
	}
	res.Observations = make([]core.Observation, 0, pairs)
	for _, p := range probes {
		res.probeByAddr[p.probe.Host.Addr] = p.probe
		start := len(res.Observations)
		var unlocated int
		res.Observations, unlocated = p.agg.AppendObservations(res.Observations, w.Topo, probeSet)
		res.Unlocated += unlocated
		sc, c := p.spool.Counts(), &res.Capture
		c.Staged, c.Moved, c.Fallbacks = c.Staged+sc.Staged, c.Moved+sc.Moved, c.Fallbacks+sc.Fallbacks
		res.RowBlocks += p.agg.Blocks()
		in, out := p.agg.Bytes()
		stat := ProbeStats{
			Probe:    p.probe,
			RxKbps:   float64(in) * 8 / 1000 / secs,
			TxKbps:   float64(out) * 8 / 1000 / secs,
			AllPeers: p.agg.PeerCount(),
		}
		for _, o := range res.Observations[start:] {
			if core.Contributor(o, core.Download, cfg.Contrib) {
				stat.ContribRx++
			}
			if core.Contributor(o, core.Upload, cfg.Contrib) {
				stat.ContribTx++
			}
		}
		res.PerProbe = append(res.PerProbe, stat)
	}
	if med, ok := core.HopMedian(res.Observations); ok {
		res.HopMedian = med
	}
	for _, n := range net.Nodes() {
		if n.Online() && !n.IsSource() {
			continuity.Add(n.Continuity())
		}
	}
	res.MeanContinuity = continuity.Mean()

	// SourceVideoTx is attributed at send time, so under a source-failover
	// scenario the promoted backup's injection counts as source load while
	// its earlier life as an ordinary peer does not.
	srcTx := led.SourceVideoTx
	res.SourceKbps = float64(srcTx) * 8 / 1000 / secs
	res.VideoBytes = led.VideoTotal
	if led.VideoTotal > 0 {
		res.SourceSharePct = 100 * float64(srcTx) / float64(led.VideoTotal)
	}
	res.DiffusionChunks = led.DiffusionChunks
	if led.DiffusionChunks > 0 {
		// The mean in whole nanoseconds first, as a time.Duration divides.
		res.DiffusionDelayS = (led.DiffusionDelaySum / time.Duration(led.DiffusionChunks)).Seconds()
	}
	res.Drops = led.DropsTotal
	res.Retransmits = led.RetransmitsTotal
	res.Backoffs = led.BackoffsTotal
	res.ChunksServed = led.ChunksServedTotal
	res.Summary = Summarize(res)
	return res, nil
}

// partitionAS maps every populated AS wholly onto one of at most n shards
// and reports the effective shard count (clamped to the number of populated
// ASes, floored at one). ASes are placed largest population first (ASN
// ascending on ties) onto the least-loaded shard — a deterministic greedy
// bin-packing, so the layout is a pure function of (world, n) and shards=N
// runs replay byte-identically.
func partitionAS(w *world.World, n int) (map[topology.ASN]int, int) {
	counts := make(map[topology.ASN]int)
	counts[w.SourceHost.AS]++
	for _, p := range w.Probes {
		counts[p.Host.AS]++
	}
	for _, bg := range w.Background {
		counts[bg.Host.AS]++
	}
	for _, dp := range w.Deferred {
		counts[dp.Host.AS]++
	}
	if n < 1 {
		n = 1
	}
	if n > len(counts) {
		n = len(counts)
	}
	ases := stats.RankByCount(counts)
	part := make(map[topology.ASN]int, len(ases))
	load := make([]int, n)
	for _, as := range ases {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		part[as] = best
		load[best] += counts[as]
	}
	return part, n
}
