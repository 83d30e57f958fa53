package study

import (
	"fmt"
	"strings"

	"napawine/internal/experiment"
	"napawine/internal/report"
	"napawine/internal/stats"
)

// metrics is the registry of the per-run numbers a study can pivot, in
// presentation order. The first three are the strategy-comparison study's
// headline: playout continuity, source load and chunk diffusion delay.
var metrics = []experiment.Metric{
	metric("continuity", "Continuity", 3,
		func(s experiment.Summary) (float64, bool) { return s.MeanContinuity, true }),
	metric("source-kbps", "Source kbps", 0,
		func(s experiment.Summary) (float64, bool) { return s.SourceKbps, true }),
	metric("source-share", "Source share%", 1,
		func(s experiment.Summary) (float64, bool) { return s.SourceSharePct, s.VideoBytes > 0 }),
	metric("diffusion-delay", "Diffusion s", 2,
		func(s experiment.Summary) (float64, bool) { return s.DiffusionDelayS, s.DiffusionChunks > 0 }),
	metric("rx-kbps", "RX kbps", 0,
		func(s experiment.Summary) (float64, bool) { return s.RxKbpsMean, true }),
	metric("hop-median", "Hop median", 1,
		func(s experiment.Summary) (float64, bool) { return s.HopMedian, true }),
	metric("as-awareness", "AS B'D%", 1, experiment.TableIVValue("AS", 0)),
	metric("events", "Events", 0,
		func(s experiment.Summary) (float64, bool) { return float64(s.Events), true }),
	// Congestion metrics ride at the registry tail so DefaultMetrics — a
	// positional slice — keeps meaning what it always has. Loss is
	// measurable once anything was offered to the bounded queues; raw drop
	// and retransmit counts are measurable in every run (they are honestly
	// zero with congestion off).
	metric("loss-pct", "Loss%", 2,
		func(s experiment.Summary) (float64, bool) { return s.LossPct, s.ChunksServed+s.Drops > 0 }),
	metric("drops", "Drops", 0,
		func(s experiment.Summary) (float64, bool) { return float64(s.Drops), true }),
	metric("retransmits", "Retx", 0,
		func(s experiment.Summary) (float64, bool) { return float64(s.Retransmits), true }),
	metric("backoffs", "Backoffs", 0,
		func(s experiment.Summary) (float64, bool) { return float64(s.Backoffs), true }),
}

// metric builds one registry entry.
func metric(key, label string, decimals int, get func(experiment.Summary) (float64, bool)) experiment.Metric {
	return experiment.Metric{Key: key, Label: label, Decimals: decimals, Get: get}
}

// Metrics lists the registered metrics in presentation order.
func Metrics() []experiment.Metric { return append([]experiment.Metric(nil), metrics...) }

// DefaultMetrics is the comparison-table default: continuity, source load
// (rate and share) and diffusion delay.
func DefaultMetrics() []experiment.Metric { return Metrics()[:4] }

// MetricByKey resolves a registered metric.
func MetricByKey(key string) (experiment.Metric, error) {
	for _, m := range metrics {
		if m.Key == key {
			return m, nil
		}
	}
	keys := make([]string, len(metrics))
	for i, m := range metrics {
		keys[i] = m.Key
	}
	return experiment.Metric{}, fmt.Errorf("study: unknown metric %q (want %s)", key, strings.Join(keys, ", "))
}

// distinct returns the first cell of every distinct key, in grid order —
// the row enumeration every aggregated table and chart shares.
func (r *Result) distinct(key func(Cell) string) []Cell {
	var out []Cell
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if k := key(c); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// Levels lists an axis's distinct rendered coordinates in grid order.
func (r *Result) Levels(ax Axis) []string {
	var out []string
	for _, c := range r.distinct(func(c Cell) string { return c.Coord(ax) }) {
		out = append(out, c.Coord(ax))
	}
	return out
}

// accumulate folds a metric over every completed cell matching the filter.
func (r *Result) accumulate(m experiment.Metric, match func(Cell) bool) stats.Accumulator {
	var acc stats.Accumulator
	for _, c := range r.Cells {
		if !c.Done || !match(c) {
			continue
		}
		if v, ok := m.Get(c.Summary); ok {
			acc.Add(v)
		}
	}
	return acc
}

// aggCell renders one mean±stderr table cell, or the dash when no matching
// run measured the metric.
func aggCell(acc stats.Accumulator, decimals int) string {
	return report.MeanErrOrDash(acc.Mean(), acc.StdErr(), decimals, acc.N() > 0)
}

// PivotTable aggregates one metric along two axes: one row per row-axis
// level, one column per column-axis level, each cell the mean ± stderr over
// every completed run at that coordinate pair (all remaining axes, seeds
// included, fold into the aggregate).
func (r *Result) PivotTable(m experiment.Metric, row, col Axis) *report.Table {
	cols := r.Levels(col)
	t := report.NewTable(
		fmt.Sprintf("Study %q — %s by %s × %s (mean±stderr over %d seeds)",
			r.Study.Name, m.Label, row, col, r.Trials()),
		append([]string{string(row)}, cols...)...)
	for _, rv := range r.Levels(row) {
		cells := make([]string, 0, len(cols)+1)
		cells = append(cells, rv)
		for _, cv := range cols {
			acc := r.accumulate(m, at([]Axis{row, col}, []string{rv, cv}))
			cells = append(cells, aggCell(acc, m.Decimals))
		}
		t.Add(cells...)
	}
	return t
}

// comparison resolves what ComparisonTable and MetricBars both print: the
// metrics (the caller's, else the study's own, else DefaultMetrics), the
// grid's non-trivial axes (those with more than one level; seeds always
// aggregate; a single-point grid keeps the app axis) and one row — its
// coordinates along those axes — per distinct combination, in grid order.
func (r *Result) comparison(ms []experiment.Metric) ([]experiment.Metric, []Axis, [][]string) {
	if len(ms) == 0 {
		for _, key := range r.Study.Metrics {
			if m, err := MetricByKey(key); err == nil {
				ms = append(ms, m)
			}
		}
	}
	if len(ms) == 0 {
		ms = DefaultMetrics()
	}
	var axes []Axis
	for _, ax := range Axes() {
		if ax != AxisSeed && len(r.Levels(ax)) > 1 {
			axes = append(axes, ax)
		}
	}
	if len(axes) == 0 {
		axes = []Axis{AxisApp}
	}
	coords := func(c Cell) []string {
		out := make([]string, len(axes))
		for i, ax := range axes {
			out[i] = c.Coord(ax)
		}
		return out
	}
	var rows [][]string
	for _, c := range r.distinct(func(c Cell) string { return strings.Join(coords(c), "\x00") }) {
		rows = append(rows, coords(c))
	}
	return ms, axes, rows
}

// at filters cells to the given coordinates along the given axes.
func at(axes []Axis, coords []string) func(Cell) bool {
	return func(c Cell) bool {
		for i, ax := range axes {
			if c.Coord(ax) != coords[i] {
				return false
			}
		}
		return true
	}
}

// ComparisonTable renders the study's headline artifact: one row per
// combination of the grid's non-trivial axes, one column per metric (see
// comparison), each cell mean ± stderr across the folded axes — for the
// registered strategy-comparison study that is continuity, source load and
// diffusion delay contrasted across every (app, strategy) pair.
func (r *Result) ComparisonTable(ms ...experiment.Metric) *report.Table {
	ms, axes, rows := r.comparison(ms)
	header := make([]string, 0, len(axes)+len(ms))
	for _, ax := range axes {
		header = append(header, string(ax))
	}
	for _, m := range ms {
		header = append(header, m.Label)
	}
	t := report.NewTable(
		fmt.Sprintf("Study %q — %s (mean±stderr over %d seeds)",
			r.Study.Name, r.Study.Description, r.Trials()),
		header...)
	for _, coords := range rows {
		row := append([]string(nil), coords...)
		for _, m := range ms {
			row = append(row, aggCell(r.accumulate(m, at(axes, coords)), m.Decimals))
		}
		t.Add(row...)
	}
	return t
}
