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
// paper's single campaign, Trials: 5 replicates it (the result renders the
// mean ± stderr tables: res.TableIV()), more axes make it a comparison grid
// (RunStudy, res.ComparisonTable()).
//
// A run the napawine command can describe in flags belongs on the command
// line (the README gives the invocations); examples/ keeps only what needs
// the library: an application profile with mutated selection weights, each
// a Bias (custompolicy), and a study observer with pivoted results
// (strategystudy).
//
// Everything underneath — the discrete-event engine, synthetic AS/country
// topology, access-link model, the overlay protocol and the analysis
// pipeline — lives in internal packages; this facade re-exports exactly
// what examples/, api_test.go and the README use (CI fails on an exported
// name none of them references); cmd/napawine imports the internals.
package napawine

import (
	"context"
	"io"

	"napawine/internal/apps"
	"napawine/internal/experiment"
	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/report"
	"napawine/internal/scenario"
	"napawine/internal/study"
)

// Re-exported experiment types.
type (
	// Result is one experiment's output; it embeds its RunSummary, whose
	// TableIV cells hold the printed Table IV columns.
	Result = experiment.Result
	// RunSummary is the bounded-memory per-run reduction a study retains.
	RunSummary = experiment.Summary
	// SeriesSample is one time-series bucket of a scenario run.
	SeriesSample = experiment.SeriesSample
	// Profile is an application behaviour profile.
	Profile = overlay.Profile
	// Table is a renderable result table.
	Table = report.Table
)

// Bias is the peer-selection weight for building custom application
// profiles (the paper's future-work direction: more locality-aware
// clients): one strength per property — bandwidth, AS, country, subnet and
// RTT — with a zero strength leaving its factor out, so Bias{} is location-
// and bandwidth-blind selection.
type Bias = policy.Bias

// Application names as printed in the paper.
const (
	PPLive = "PPLive"
	TVAnts = "TVAnts"
)

// Apps lists the three applications in the paper's order.
func Apps() []string { return []string{PPLive, "SopCast", TVAnts} }

// DefaultConfig returns the calibrated configuration for one application.
func DefaultConfig(app string) experiment.Config { return experiment.Default(app) }

// ProfileOf returns a fresh behaviour profile for one application.
func ProfileOf(app string) (*Profile, error) { return apps.ByName(app) }

// ProfileVariant derives an ablation profile from base with one knob
// mutated.
func ProfileVariant(base *Profile, name string, mutate func(*Profile)) *Profile {
	return apps.Variant(base, name, mutate)
}

// Run executes one experiment.
func Run(cfg experiment.Config) (*Result, error) { return experiment.Run(cfg) }

// RunAll executes a study keeping every cell's full Result — observations,
// figures and time series, not only the bounded summary — and returns them
// in the paper's application order (cells of one application stay in grid
// order). It is the entry point for the paper-format Tables II–IV and
// Figures 1–2; memory grows with the grid, so replicated or multi-axis
// studies belong to RunStudy. Study options (WithWorkers, WithObserver) are
// forwarded.
func RunAll(st *Study, opts ...study.Option) ([]*Result, error) {
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

// Re-exported study types: the declarative experiment-grid layer — the one
// run description and the one execution path above the engine.
type (
	// Study is a declarative experiment grid — apps × strategies ×
	// scenarios × profile variants × seeds — with a strict JSON codec.
	Study = study.Study
	// StudyVariant is one profile-variant-axis cell.
	StudyVariant = study.Variant
	// StudyDuration is a time.Duration that travels through study JSON as
	// a human-readable string ("5m").
	StudyDuration = study.Duration
	// StudyRunInfo identifies one grid cell to an observer.
	StudyRunInfo = study.RunInfo
)

// Study grid axes, for pivots.
const (
	AxisApp      = study.AxisApp
	AxisStrategy = study.AxisStrategy
)

// RunStudy executes a declarative study under a context: one experiment
// per grid cell, reduced to bounded summaries as cells complete. The result
// renders itself: ComparisonTable and PivotTable for a grid, TableII–IV,
// HealthTable and SeriesTable as mean ± stderr over the seed axis — the
// same study reproduces byte-identical tables whatever the worker count.
// When ctx is cancelled mid-battery RunStudy halts in-flight cells
// promptly, skips unstarted ones, and returns the partial result alongside
// ctx.Err(); completed cells are marked Done, their summaries are
// well-formed, and the tables aggregate only them.
func RunStudy(ctx context.Context, st *Study, opts ...study.Option) (*study.Result, error) {
	return study.Run(ctx, st, opts...)
}

// WithWorkers bounds a study's parallel cells (0 = GOMAXPROCS).
func WithWorkers(n int) study.Option { return study.WithWorkers(n) }

// WithObserver streams per-run progress and per-bucket time series to obs;
// callbacks fire concurrently from worker goroutines.
func WithObserver(obs study.Observer) study.Option { return study.WithObserver(obs) }

// StudyByName returns a fresh copy of a registered study.
func StudyByName(name string) (*Study, error) { return study.ByName(name) }

// StudyMetricByKey resolves a registered pivot metric.
func StudyMetricByKey(key string) (experiment.Metric, error) { return study.MetricByKey(key) }

// LoadScenarioFile reads, decodes and validates a JSON scenario file (see
// README "Authoring scenario files"; internal/scenario/specs/ holds the
// registered scenarios' own files). The returned spec plugs into a study's
// scenario axis or Config.Scenario exactly like a registered one.
func LoadScenarioFile(path string) (*scenario.Spec, error) { return scenario.LoadFile(path) }

// SeriesTable renders the per-bucket time series of scenario runs that
// share a scenario and duration.
func SeriesTable(results []*Result) *Table { return experiment.SeriesTable(results) }

// TableII builds the experiment-summary table.
func TableII(results []*Result) *Table { return experiment.TableII(results) }

// TableIII builds the self-induced-bias table.
func TableIII(results []*Result) *Table { return experiment.TableIII(results) }

// TableIV builds the network-awareness table.
func TableIV(results []*Result) *Table { return experiment.TableIV(results) }

// RenderFigure1 writes the Figure-1 bars for a set of results.
func RenderFigure1(w io.Writer, results []*Result) error {
	return experiment.RenderFigure1(w, results)
}

// Figure2 computes the AS-to-AS probe traffic matrix for one result.
func Figure2(r *Result) experiment.ASTraffic { return experiment.ComputeFigure2(r) }

// RenderFigure2 writes the Figure-2 matrices for a set of results.
func RenderFigure2(w io.Writer, results []*Result) error {
	return experiment.RenderFigure2(w, results)
}

// HopSweep evaluates the HOP preference indices across a band of
// thresholds around the paper's fixed 19, the A2 ablation: it shows the
// 50/50 split is not an artifact of the exact cut.
func HopSweep(r *Result, lo, hi int) (*Table, error) { return experiment.HopSweep(r, lo, hi) }
