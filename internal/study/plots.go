package study

import (
	"fmt"
	"math"
	"strings"

	"napawine/internal/experiment"
	"napawine/internal/plot"
)

// MetricBars renders the study's comparison as SVG bar charts: one chart
// per metric, one bar group per combination of the grid's non-trivial axes
// (the same rows ComparisonTable prints), each bar the mean across seeds
// with a stderr whisker. Unmeasured combinations render as the bar-chart
// dash: a gap. No metrics selects the study's own (then DefaultMetrics).
func (r *Result) MetricBars(ms ...experiment.Metric) []plot.Artifact {
	ms, axes, rows := r.comparison(ms)
	groups := make([]string, len(rows))
	for i, coords := range rows {
		groups[i] = strings.Join(coords, " ")
	}
	arts := make([]plot.Artifact, 0, len(ms))
	for _, m := range ms {
		bs := plot.BarSeries{Name: m.Label,
			Vals:  make([]float64, len(rows)),
			Errs:  make([]float64, len(rows)),
			Valid: make([]bool, len(rows)),
		}
		for i, coords := range rows {
			if acc := r.accumulate(m, at(axes, coords)); acc.N() > 0 {
				bs.Vals[i] = acc.Mean()
				bs.Errs[i] = acc.StdErr()
				bs.Valid[i] = true
			}
		}
		arts = append(arts, plot.Artifact{
			Name: "study-" + plot.Slug(m.Label),
			Chart: &plot.Bar{
				Title:  "Study \"" + r.Study.Name + "\" — " + m.Label,
				YLabel: m.Label, Groups: groups, Series: []plot.BarSeries{bs},
			},
		})
	}
	return arts
}

// SeriesPlots renders the aggregated time series as SVG line charts with
// mean±stderr bands: one chart per metric, one banded series per battery,
// aggregated across seeds exactly like SeriesTable — the intra-AS metric
// folds only measurable runs and breaks the line where no run measured.
// Nil when the study ran no scenario.
func (r *Result) SeriesPlots() []plot.Artifact {
	buckets := r.buckets()
	if buckets == 0 {
		return nil
	}
	labels := r.batteries()
	var arts []plot.Artifact
	for _, m := range experiment.SeriesMetrics {
		l := &plot.Line{
			Title: fmt.Sprintf("%s — scenario %q (mean±stderr over %d seeds)",
				m.YLabel, r.Cells[0].Scenario, r.Trials()),
			YLabel: m.YLabel,
		}
		for _, label := range labels {
			s := plot.Series{Name: label}
			for b := 0; b < buckets; b++ {
				smp, ok := r.sampleAt(label, b)
				if !ok {
					continue
				}
				mean, se := math.NaN(), math.NaN()
				if acc := r.accumulate(m.At(b), in(label)); acc.N() > 0 {
					mean, se = acc.Mean(), acc.StdErr()
				}
				s.X = append(s.X, smp.T.Seconds())
				s.Y = append(s.Y, mean)
				s.Lo = append(s.Lo, mean-se)
				s.Hi = append(s.Hi, mean+se)
			}
			if len(s.X) > 0 {
				l.Series = append(l.Series, s)
			}
		}
		arts = append(arts, plot.Artifact{Name: "sweep-" + m.Name, Chart: l})
	}
	return arts
}
