package sweep

import (
	"fmt"
	"math"

	"napawine/internal/experiment"
	"napawine/internal/plot"
	"napawine/internal/stats"
)

// SeriesPlots renders the sweep's aggregated time series as SVG line
// charts with mean±stderr bands: one chart per metric, one banded series
// per (app, variant) group, aggregated across seeds exactly like
// SeriesTable — the intra-AS metric folds only measurable trials and
// breaks the line where no trial measured. Nil when the sweep ran no
// scenario.
func (r *Result) SeriesPlots() []plot.Artifact {
	buckets := r.buckets()
	if buckets == 0 {
		return nil
	}

	metrics := []struct {
		name   string
		ylabel string
		get    func(experiment.SeriesSample) (float64, bool)
	}{
		{"online", "online peers",
			func(s experiment.SeriesSample) (float64, bool) { return float64(s.Online), true }},
		{"continuity", "continuity",
			func(s experiment.SeriesSample) (float64, bool) { return s.Continuity, true }},
		{"intra-as", "intra-AS %",
			func(s experiment.SeriesSample) (float64, bool) { return s.IntraASPct, s.IntraASValid }},
		{"video-kbps", "video kbps",
			func(s experiment.SeriesSample) (float64, bool) { return s.VideoKbps, true }},
	}

	var arts []plot.Artifact
	for _, m := range metrics {
		l := &plot.Line{
			Title: fmt.Sprintf("%s — scenario %q (mean±stderr over %d seeds)",
				m.ylabel, r.Scenario, r.Trials()),
			XLabel: "virtual time", YLabel: m.ylabel, XTime: true,
		}
		for _, g := range r.Groups {
			s := plot.Series{Name: g.Label,
				X:  make([]float64, 0, buckets),
				Y:  make([]float64, 0, buckets),
				Lo: make([]float64, 0, buckets),
				Hi: make([]float64, 0, buckets),
			}
			for b := 0; b < buckets; b++ {
				var acc stats.Accumulator
				t := math.NaN()
				for _, sum := range g.Summaries {
					if b >= len(sum.Series) {
						continue
					}
					smp := sum.Series[b]
					t = smp.T.Seconds()
					if v, ok := m.get(smp); ok {
						acc.Add(v)
					}
				}
				if math.IsNaN(t) {
					continue
				}
				s.X = append(s.X, t)
				if acc.N() == 0 {
					s.Y = append(s.Y, math.NaN())
					s.Lo = append(s.Lo, math.NaN())
					s.Hi = append(s.Hi, math.NaN())
					continue
				}
				mean, se := acc.Mean(), acc.StdErr()
				s.Y = append(s.Y, mean)
				s.Lo = append(s.Lo, mean-se)
				s.Hi = append(s.Hi, mean+se)
			}
			if len(s.X) > 0 {
				l.Series = append(l.Series, s)
			}
		}
		arts = append(arts, plot.Artifact{Name: "sweep-" + m.name, Chart: l})
	}
	return arts
}
