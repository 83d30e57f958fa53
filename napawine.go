// Package napawine reproduces "Network Awareness of P2P Live Streaming
// Applications" (Ciullo et al., IEEE IPDPS 2009): a packet-level emulation
// of the NAPA-WINE measurement campaign over PPLive-, SopCast- and
// TVAnts-like mesh-pull swarms, plus the paper's preference-partition
// framework that infers each application's network awareness from passive
// traces.
//
// The typical entry point runs one experiment per application and renders
// the paper's tables:
//
//	results, err := napawine.RunAll(&napawine.Study{
//		Name: "battery", Duration: napawine.StudyDuration(10 * time.Minute)})
//	...
//	napawine.TableIV(results).Render(os.Stdout)
//
// A Study is the one description of a run at every size: one seed is the
// paper's single campaign, Trials: 5 replicates it (SweepTables renders the
// mean ± stderr tables), more axes make it a comparison grid (RunStudy).
//
// Everything underneath — the discrete-event engine, synthetic AS/country
// topology, access-link model, the overlay protocol and the analysis
// pipeline — is exposed through internal packages; this facade re-exports
// the surface a downstream user needs.
package napawine

import (
	"context"
	"fmt"
	"io"

	"napawine/internal/access"
	"napawine/internal/apps"
	"napawine/internal/core"
	"napawine/internal/experiment"
	"napawine/internal/fleet"
	"napawine/internal/overlay"
	"napawine/internal/plot"
	"napawine/internal/policy"
	"napawine/internal/report"
	"napawine/internal/runner"
	"napawine/internal/scenario"
	"napawine/internal/study"
	"napawine/internal/sweep"
)

// Re-exported experiment types.
type (
	// Config parameterizes one experiment (see experiment.Config).
	Config = experiment.Config
	// Result is one experiment's output.
	Result = experiment.Result
	// ProbeStats summarizes one vantage point.
	ProbeStats = experiment.ProbeStats
	// TableIVCell is one (property, app) cell group of Table IV.
	TableIVCell = experiment.TableIVCell
	// GeoBreakdown is the Figure-1 dataset.
	GeoBreakdown = experiment.GeoBreakdown
	// ASTraffic is the Figure-2 dataset.
	ASTraffic = experiment.ASTraffic
	// Metrics carries one preference-index evaluation (Eqs. 1–8).
	Metrics = core.Metrics
	// Observation is the per-(probe, peer) aggregate the framework
	// consumes.
	Observation = core.Observation
	// Profile is an application behaviour profile.
	Profile = overlay.Profile
	// Table is a renderable result table.
	Table = report.Table
)

// Re-exported policy types for building custom application profiles (the
// paper's future-work direction: more locality-aware clients).
type (
	// ChunkStrategy orders each scheduler round's chunk requests across
	// the pull window (the Mathieu–Perino scheduling-strategy space).
	ChunkStrategy = policy.ChunkStrategy
	// ChunkRef is one missing chunk as a strategy sees it.
	ChunkRef = policy.ChunkRef
	// UrgentRandom is the default urgent-head + random-tail strategy.
	UrgentRandom = policy.UrgentRandom
	// LatestUseful requests the newest chunk first.
	LatestUseful = policy.LatestUseful
	// RarestFirst requests the fewest-holders chunk first.
	RarestFirst = policy.RarestFirst
	// DeadlineFirst requests strictly oldest-first.
	DeadlineFirst = policy.DeadlineFirst
	// Hybrid is the parameterized strategy family subsuming the presets,
	// expressible as "hybrid:u=0.3,r=0.5" names (see HybridGrammar).
	Hybrid = policy.Hybrid
	// CongestionModel bounds every peer's uplink queue (see
	// Config.Congestion and Study.QueueDepth).
	CongestionModel = access.CongestionModel
	// Weight scores peer-selection candidates.
	Weight = policy.Weight
	// Uniform is location- and bandwidth-blind selection.
	Uniform = policy.Uniform
	// BandwidthBias prefers measured-fast peers.
	BandwidthBias = policy.BandwidthBias
	// ASBias prefers same-AS peers.
	ASBias = policy.ASBias
	// CCBias prefers same-country peers.
	CCBias = policy.CCBias
	// SubnetBias prefers same-subnet peers.
	SubnetBias = policy.SubnetBias
	// RTTBias prefers nearby peers.
	RTTBias = policy.RTTBias
	// ProductWeight composes weights multiplicatively.
	ProductWeight = policy.Product
)

// Application names as printed in the paper.
const (
	PPLive  = "PPLive"
	SopCast = "SopCast"
	TVAnts  = "TVAnts"
)

// Apps lists the three applications in the paper's order.
func Apps() []string { return []string{PPLive, SopCast, TVAnts} }

// DefaultConfig returns the calibrated configuration for one application.
func DefaultConfig(app string) Config { return experiment.Default(app) }

// ProfileOf returns a fresh behaviour profile for one application.
func ProfileOf(app string) (*Profile, error) { return apps.ByName(app) }

// ProfileVariant derives an ablation profile from base with one knob
// mutated.
func ProfileVariant(base *Profile, name string, mutate func(*Profile)) *Profile {
	return apps.Variant(base, name, mutate)
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) { return experiment.Run(cfg) }

// RunAll executes a study keeping every cell's full Result — observations,
// figures and time series, not only the bounded summary — and returns them
// in the paper's application order (cells of one application stay in grid
// order). It is the entry point for the paper-format Tables II–IV and
// Figures 1–2; memory grows with the grid, so replicated or multi-axis
// studies belong to RunStudy. Study options (WithWorkers, WithObserver) are
// forwarded.
func RunAll(st *Study, opts ...StudyOption) ([]*Result, error) {
	res, err := study.Run(context.Background(), st,
		append([]study.Option{study.WithFullResults()}, opts...)...)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(res.Full))
	for _, r := range res.Full {
		if r != nil {
			results = append(results, r)
		}
	}
	experiment.SortResults(results)
	return results, nil
}

// Re-exported replication types: mean ± stderr rendering over a study's
// seed axis.
type (
	// SweepResult is a study result regrouped per (app, variant); it
	// renders Tables II–IV, the health panel and the scenario time series
	// with mean ± stderr error bars.
	SweepResult = sweep.Result
	// RunSummary is the bounded-memory per-run reduction a study retains.
	RunSummary = experiment.Summary
)

// SweepTables folds a study result's seed axis into per-(app, variant)
// groups for mean ± stderr rendering. The same study reproduces
// byte-identical aggregated tables, whatever the worker count.
func SweepTables(res *StudyResult) *SweepResult { return sweep.Of(res) }

// Re-exported study types: the declarative experiment-grid layer — the one
// run description and the one execution path above the engine.
type (
	// Study is a declarative experiment grid — apps × strategies ×
	// scenarios × profile variants × seeds — with a strict JSON codec.
	Study = study.Study
	// StudyScenario is one scenario-axis cell: a registered name or an
	// inline timeline.
	StudyScenario = study.Scenario
	// StudyVariant is one profile-variant-axis cell.
	StudyVariant = study.Variant
	// StudyDuration is a time.Duration that travels through study JSON as
	// a human-readable string ("5m").
	StudyDuration = study.Duration
	// StudyResult holds one executed cell per grid point and pivots
	// summaries along any axis.
	StudyResult = study.Result
	// StudyCell is one executed grid point.
	StudyCell = study.Cell
	// StudyAxis names a grid dimension for pivots.
	StudyAxis = study.Axis
	// StudyMetric is one per-run number a study can pivot.
	StudyMetric = study.Metric
	// StudyObserver receives execution progress and streamed time-series
	// buckets; callbacks fire concurrently from worker goroutines.
	StudyObserver = study.Observer
	// StudyRunInfo identifies one grid cell to an observer.
	StudyRunInfo = study.RunInfo
	// StudyOption configures RunStudy.
	StudyOption = study.Option
)

// The six study grid axes.
const (
	AxisApp        = study.AxisApp
	AxisStrategy   = study.AxisStrategy
	AxisScenario   = study.AxisScenario
	AxisVariant    = study.AxisVariant
	AxisCongestion = study.AxisCongestion
	AxisSeed       = study.AxisSeed
)

// RunStudy executes a declarative study under a context: one experiment
// per grid cell, reduced to bounded summaries as cells complete. When ctx
// is cancelled mid-battery RunStudy halts in-flight cells promptly, skips
// unstarted ones, and returns the partial result alongside ctx.Err();
// completed cells are marked Done and their summaries are well-formed.
func RunStudy(ctx context.Context, st *Study, opts ...StudyOption) (*StudyResult, error) {
	return study.Run(ctx, st, opts...)
}

// WithWorkers bounds a study's parallel cells (0 = GOMAXPROCS).
func WithWorkers(n int) StudyOption { return study.WithWorkers(n) }

// WithObserver streams per-run progress and per-bucket time series to obs.
func WithObserver(obs StudyObserver) StudyOption { return study.WithObserver(obs) }

// StudyNames lists the registered studies.
func StudyNames() []string { return study.Names() }

// StudyByName returns a fresh copy of a registered study.
func StudyByName(name string) (*Study, error) { return study.ByName(name) }

// LoadStudyFile reads, decodes and validates a JSON study file (see README
// "Running studies" and examples/studies/).
func LoadStudyFile(path string) (*Study, error) { return study.LoadFile(path) }

// DecodeStudy parses one JSON study.
func DecodeStudy(r io.Reader) (*Study, error) { return study.Decode(r) }

// EncodeStudy writes a study as indented JSON; every registered study
// round-trips through Encode/Decode unchanged.
func EncodeStudy(w io.Writer, st *Study) error { return study.Encode(w, st) }

// StudyMetrics lists the registered pivot metrics.
func StudyMetrics() []StudyMetric { return study.Metrics() }

// StudyMetricByKey resolves a registered pivot metric.
func StudyMetricByKey(key string) (StudyMetric, error) { return study.MetricByKey(key) }

// Seeds builds n sequential trial seeds starting at base, the conventional
// input for Study.Seeds.
func Seeds(base int64, n int) []int64 { return runner.Seeds(base, n) }

// Re-exported fleet types: distributed study execution. One coordinator
// serves a study's grid cells over HTTP/JSON leases; any number of workers
// join, execute cells locally, and stream progress back, with completed
// cells checkpointed for bit-for-bit resume (see README: running a fleet).
type (
	// FleetCoordinator serves a study grid to fleet workers and fans their
	// progress into study observers.
	FleetCoordinator = fleet.Coordinator
	// FleetCoordinatorConfig parameterizes NewFleetCoordinator.
	FleetCoordinatorConfig = fleet.CoordinatorConfig
	// FleetWorkerConfig parameterizes RunFleetWorker.
	FleetWorkerConfig = fleet.WorkerConfig
)

// NewFleetCoordinator starts serving a study's cells to fleet workers.
func NewFleetCoordinator(cfg FleetCoordinatorConfig) (*FleetCoordinator, error) {
	return fleet.NewCoordinator(cfg)
}

// RunFleetWorker joins a coordinator and executes leased cells until the
// grid completes, a cell fails, or ctx is cancelled.
func RunFleetWorker(ctx context.Context, cfg FleetWorkerConfig) error {
	return fleet.RunWorker(ctx, cfg)
}

// StudyCellDigest is the canonical digest of one grid cell under the study
// identified by studyDigest (Study.Digest) — the fleet's checkpoint key.
func StudyCellDigest(studyDigest string, info StudyRunInfo) string {
	return study.CellDigest(studyDigest, info)
}

// EncodeStudyResult writes a study result — the study plus its executed
// cells — as strict, bit-stable JSON.
func EncodeStudyResult(w io.Writer, r *StudyResult) error { return study.EncodeResult(w, r) }

// DecodeStudyResult parses one result file, strictly: unknown fields are
// errors and the cells must match the embedded study's own grid.
func DecodeStudyResult(r io.Reader) (*StudyResult, error) { return study.DecodeResult(r) }

// EncodeRunSummary writes one per-run summary as strict, bit-stable JSON —
// the unit the fleet checkpoints and ships over its wire protocol.
func EncodeRunSummary(w io.Writer, s *RunSummary) error { return study.EncodeSummary(w, s) }

// DecodeRunSummary parses one per-run summary, strictly.
func DecodeRunSummary(r io.Reader) (*RunSummary, error) { return study.DecodeSummary(r) }

// Re-exported scenario types: the declarative workload-timeline layer.
type (
	// ScenarioSpec is a named, seedable workload timeline (flash crowd,
	// diurnal wave, AS partition, tracker outage, ...).
	ScenarioSpec = scenario.Spec
	// ScenarioEvent is one timeline entry of a ScenarioSpec.
	ScenarioEvent = scenario.Event
	// SeriesSample is one time-series bucket of a scenario run.
	SeriesSample = experiment.SeriesSample
	// ASSample is one tracked AS's slice of a SeriesSample.
	ASSample = experiment.ASSample
	// PlotArtifact is one named, renderable SVG chart.
	PlotArtifact = plot.Artifact
)

// Scenario event kinds and arrival shapes, for building custom timelines.
const (
	ScenarioArrivals        = scenario.Arrivals
	ScenarioDepartures      = scenario.Departures
	ScenarioPartition       = scenario.Partition
	ScenarioThrottle        = scenario.Throttle
	ScenarioTrackerOutage   = scenario.TrackerOutage
	ScenarioSourceFailover  = scenario.SourceFailover
	ScenarioRegionalChurn   = scenario.RegionalChurn
	ScenarioCountryThrottle = scenario.CountryThrottle
	ScenarioZap             = scenario.Zap

	ShapeUniform = scenario.ShapeUniform
	ShapeBurst   = scenario.ShapeBurst
	ShapeWave    = scenario.ShapeWave
)

// ScenarioNames lists the registered workload scenarios.
func ScenarioNames() []string { return scenario.Names() }

// LoadScenarioFile reads, decodes and validates a JSON scenario file (see
// README "Authoring scenario files" and examples/scenarios/). The returned
// spec plugs into StudyScenario.Spec or Config.Scenario exactly like a
// registered one.
func LoadScenarioFile(path string) (*ScenarioSpec, error) { return scenario.LoadFile(path) }

// DecodeScenario parses one JSON scenario spec.
func DecodeScenario(r io.Reader) (*ScenarioSpec, error) { return scenario.Decode(r) }

// EncodeScenario writes a spec as indented JSON; every registered scenario
// round-trips through Encode/Decode unchanged.
func EncodeScenario(w io.Writer, s *ScenarioSpec) error { return scenario.Encode(w, s) }

// StrategyNames lists the registered chunk-scheduling strategies, default
// first.
func StrategyNames() []string { return policy.StrategyNames() }

// StrategyByName resolves a chunk-scheduling strategy: a registered name,
// a parameterized hybrid member ("hybrid:u=0.3,r=0.5", see HybridGrammar),
// or "" for the default (urgent-random).
func StrategyByName(name string) (ChunkStrategy, error) { return policy.StrategyByName(name) }

// StrategyDescription returns the one-line description of a registered or
// parameterized strategy ("" when unknown).
func StrategyDescription(name string) string { return policy.StrategyDescription(name) }

// HybridGrammar documents the parameterized hybrid strategy name syntax.
const HybridGrammar = policy.HybridGrammar

// ParseHybrid parses a "hybrid[:k=v,...]" strategy name into its member.
func ParseHybrid(name string) (Hybrid, error) { return policy.ParseHybrid(name) }

// ScenarioByName returns a fresh copy of a registered workload scenario.
func ScenarioByName(name string) (*ScenarioSpec, error) { return scenario.ByName(name) }

// SeriesTable renders the per-bucket time series of scenario runs that
// share a scenario and duration.
func SeriesTable(results []*Result) *Table { return experiment.SeriesTable(results) }

// ASSeriesTable renders the per-AS time-series breakdown of scenario runs
// that sampled one (nil when none did).
func ASSeriesTable(results []*Result) *Table { return experiment.ASSeriesTable(results) }

// SeriesPlots renders the scenario time series of results as SVG line
// charts — swarm-wide metrics plus per-AS breakdowns. Nil when no result
// carried a series.
func SeriesPlots(results []*Result) []PlotArtifact { return experiment.SeriesPlots(results) }

// Figure1Plots renders each result's Figure-1 geographic breakdown as one
// grouped SVG bar chart.
func Figure1Plots(results []*Result) []PlotArtifact { return experiment.Figure1Plots(results) }

// WritePlots renders SVG artifacts into dir (created if absent), one file
// per artifact, and returns the written file names.
func WritePlots(dir string, arts []PlotArtifact) ([]string, error) { return plot.WriteDir(dir, arts) }

// Summarize reduces one Result to its bounded per-run summary.
func Summarize(r *Result) RunSummary { return experiment.Summarize(r) }

// TableII builds the experiment-summary table.
func TableII(results []*Result) *Table { return experiment.TableII(results) }

// TableIII builds the self-induced-bias table.
func TableIII(results []*Result) *Table { return experiment.TableIII(results) }

// TableIV builds the network-awareness table.
func TableIV(results []*Result) *Table { return experiment.TableIV(results) }

// ComputeTableIV returns the raw Table IV metrics for one result.
func ComputeTableIV(r *Result) []TableIVCell { return experiment.ComputeTableIV(r) }

// Figure1 computes the geographic breakdown for one result.
func Figure1(r *Result) GeoBreakdown { return experiment.ComputeFigure1(r) }

// RenderFigure1 writes the Figure-1 bars for a set of results.
func RenderFigure1(w io.Writer, results []*Result) error {
	return experiment.RenderFigure1(w, results)
}

// Figure2 computes the AS-to-AS probe traffic matrix for one result.
func Figure2(r *Result) ASTraffic { return experiment.ComputeFigure2(r) }

// RenderFigure2 writes the Figure-2 matrices for a set of results.
func RenderFigure2(w io.Writer, results []*Result) error {
	return experiment.RenderFigure2(w, results)
}

// HopSweep evaluates the HOP preference indices across a band of
// thresholds around the paper's fixed 19, the A2 ablation: it shows the
// 50/50 split is not an artifact of the exact cut.
func HopSweep(r *Result, lo, hi int) (*Table, error) {
	if lo > hi || lo < 1 {
		return nil, fmt.Errorf("napawine: bad hop sweep range [%d,%d]", lo, hi)
	}
	t := report.NewTable(
		fmt.Sprintf("HOP threshold sweep — %s", r.App),
		"Threshold", "B'D%", "P'D%", "B'U%", "P'U%")
	for th := lo; th <= hi; th++ {
		c := core.HOPClassifier{Threshold: th}
		d := core.Compute(r.Observations, core.Download, c, r.Cfg.Contrib, true)
		u := core.Compute(r.Observations, core.Upload, c, r.Cfg.Contrib, true)
		t.Add(fmt.Sprintf("%d", th),
			report.PctOrDash(d.BytePct, d.Valid()),
			report.PctOrDash(d.PeerPct, d.Valid()),
			report.PctOrDash(u.BytePct, u.Valid()),
			report.PctOrDash(u.PeerPct, u.Valid()))
	}
	return t, nil
}
