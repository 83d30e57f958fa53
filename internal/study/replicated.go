package study

import (
	"fmt"

	"napawine/internal/experiment"
	"napawine/internal/report"
)

// The paper's tables print one number per (property, application) cell from
// a single measurement campaign; Silverston & Fourmaux's comparison work
// and Clegg et al.'s locality studies both show those numbers are noisy
// across trials. The tables in this file are the paper's, replicated: one
// row per (application, variant) battery, every cell the mean ± standard
// error over that battery's completed runs. They are meant for grids whose
// strategy, scenario and congestion axes are single-valued, which is what
// the CLI's flags build; a multi-valued axis folds into the aggregate.

// battery labels a cell's (application, variant) group: "App", or
// "App/Variant" for ablation groups.
func battery(c Cell) string {
	if c.Variant != "" {
		return c.App + "/" + c.Variant
	}
	return c.App
}

// batteries lists the result's battery labels in grid order.
func (r *Result) batteries() []string {
	cells := r.distinct(battery)
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = battery(c)
	}
	return out
}

// in filters cells to one battery.
func in(label string) func(Cell) bool {
	return func(c Cell) bool { return battery(c) == label }
}

// rows are the replicated tables' rows: one per battery, each cell the mean
// ± stderr over the battery's completed runs that measured it.
func (r *Result) rows() experiment.Rows {
	labels := r.batteries()
	return experiment.Rows{
		Labels: labels,
		Cell: func(i int, m experiment.Metric) string {
			return aggCell(r.accumulate(m, in(labels[i])), m.Decimals)
		},
		Sample: func(i, b int) (experiment.SeriesSample, bool) { return r.sampleAt(labels[i], b) },
	}
}

// overSeeds titles a replicated table.
func (r *Result) overSeeds(title string) string {
	return fmt.Sprintf("%s (mean±stderr over %d seeds)", title, r.Trials())
}

// TableII renders the aggregated experiment-summary table: each cell is the
// mean ± stderr across seeds of the per-run probe mean (or max).
func (r *Result) TableII() *report.Table {
	return r.rows().Table(r.overSeeds("TABLE II — Summary of experiments"), experiment.TableIIColumns)
}

// TableIII renders the aggregated self-induced-bias table.
func (r *Result) TableIII() *report.Table {
	return r.rows().Table(r.overSeeds("TABLE III — NAPA-WINE self-induced bias"), experiment.TableIIIColumns)
}

// healthColumns are the run-health panel's columns.
var healthColumns = []experiment.Metric{
	{Label: "Hop median", Decimals: 1,
		Get: func(s experiment.Summary) (float64, bool) { return s.HopMedian, true }},
	{Label: "Continuity", Decimals: 3,
		Get: func(s experiment.Summary) (float64, bool) { return s.MeanContinuity, true }},
	{Label: "Events/run", Decimals: 0,
		Get: func(s experiment.Summary) (float64, bool) { return float64(s.Events), true }},
	{Label: "Unlocated", Decimals: 1,
		Get: func(s experiment.Summary) (float64, bool) { return float64(s.Unlocated), true }},
}

// HealthTable renders the run-health panel: hop medians, playout continuity
// and event throughput per battery — the replicated version of the
// single-run diagnostics cmd/napawine prints under Table IV.
func (r *Result) HealthTable() *report.Table {
	return r.rows().Table(r.overSeeds("Sweep health"), healthColumns)
}

// TableIV renders the aggregated network-awareness table. A cell aggregates
// only the runs in which it was measurable; if no run measured it the cell
// prints the paper's dash.
func (r *Result) TableIV() *report.Table {
	return r.rows().TableIV(r.overSeeds("TABLE IV — Network awareness"))
}

// buckets reports the longest time series any completed run recorded (0 =
// the study ran no scenario).
func (r *Result) buckets() int {
	n := 0
	for _, c := range r.Cells {
		if c.Done {
			n = max(n, len(c.Summary.Series))
		}
	}
	return n
}

// sampleAt returns bucket b of the last completed run of a battery that
// reached it — for the bucket's timestamp and tracker state, which belong
// to the scenario timeline, not the seed, so every run agrees on them.
func (r *Result) sampleAt(label string, b int) (smp experiment.SeriesSample, ok bool) {
	for _, c := range r.Cells {
		if c.Done && battery(c) == label && b < len(c.Summary.Series) {
			smp, ok = c.Summary.Series[b], true
		}
	}
	return smp, ok
}

// SeriesTable renders the aggregated per-bucket time series of a scenario
// study: each (bucket, battery) cell is the mean ± stderr across seeds. The
// intra-AS column aggregates only the runs whose bucket moved video (the
// same measurable-runs rule Table IV uses); a bucket no run measured
// prints the dash. Returns nil when the study ran no scenario.
func (r *Result) SeriesTable() *report.Table {
	buckets := r.buckets()
	if buckets == 0 {
		return nil
	}
	return r.rows().SeriesTable(r.overSeeds(fmt.Sprintf("Time series — scenario %q", r.Cells[0].Scenario)), buckets)
}
