package experiment

import (
	"fmt"
	"math"

	"napawine/internal/plot"
)

// SeriesMetric is one swarm-wide column of the scenario time series, as the
// single-run charts here and the replicated table and charts of the study
// layer present it. Get reports false for a bucket that did not measure the
// metric (intra-AS share in a bucket that moved no video): charts break the
// line there and tables print the dash, never a fake zero.
type SeriesMetric struct {
	Name     string // artifact stem
	YLabel   string // chart axis and title fragment
	Column   string // table header
	Decimals int    // table precision
	Get      func(SeriesSample) (float64, bool)
}

// SeriesMetrics lists the series columns in presentation order.
var SeriesMetrics = []SeriesMetric{
	{"online", "online peers", "Online", 0,
		func(s SeriesSample) (float64, bool) { return float64(s.Online), true }},
	{"continuity", "continuity", "Continuity", 3,
		func(s SeriesSample) (float64, bool) { return s.Continuity, true }},
	{"intra-as", "intra-AS %", "Intra-AS%", 1,
		func(s SeriesSample) (float64, bool) { return s.IntraASPct, s.IntraASValid }},
	{"video-kbps", "video kbps", "Video kbps", 0,
		func(s SeriesSample) (float64, bool) { return s.VideoKbps, true }},
}

// At lifts the column to a Metric over run summaries: the value in bucket b,
// unmeasured in runs whose series is shorter.
func (m SeriesMetric) At(b int) Metric {
	return Metric{Label: m.Column, Decimals: m.Decimals, Get: func(s Summary) (float64, bool) {
		if b >= len(s.Series) {
			return 0, false
		}
		return m.Get(s.Series[b])
	}}
}

// SeriesPlots renders the scenario time series of results as SVG line
// charts: one chart per swarm-wide metric with one series per application,
// plus per-AS breakdowns (online, continuity, intra-AS share; one series
// per tracked AS) for every result that sampled them. Nil when no result
// carried a series — mirroring SeriesTable.
func SeriesPlots(results []*Result) []plot.Artifact {
	scenario := ""
	carried := false
	for _, r := range results {
		if r.Scenario != "" {
			scenario = r.Scenario
		}
		if len(r.Series) > 0 {
			carried = true
		}
	}
	if !carried {
		return nil
	}

	var arts []plot.Artifact
	for _, m := range SeriesMetrics {
		l := &plot.Line{
			Title:  fmt.Sprintf("%s — scenario %q", m.YLabel, scenario),
			XLabel: "virtual time", YLabel: m.YLabel, XTime: true,
		}
		for _, r := range results {
			if len(r.Series) == 0 {
				continue
			}
			s := plot.Series{Name: r.App,
				X: make([]float64, len(r.Series)), Y: make([]float64, len(r.Series))}
			for i, smp := range r.Series {
				s.X[i] = smp.T.Seconds()
				if v, ok := m.Get(smp); ok {
					s.Y[i] = v
				} else {
					s.Y[i] = math.NaN()
				}
			}
			l.Series = append(l.Series, s)
		}
		arts = append(arts, plot.Artifact{Name: "series-" + m.Name, Chart: l})
	}

	for _, r := range results {
		arts = append(arts, perASPlots(r, scenario)...)
	}
	return arts
}

// asMetric is one plottable column of the per-AS breakdown.
type asMetric struct {
	name   string
	ylabel string
	get    func(ASSample) float64
}

var asMetrics = []asMetric{
	{"online", "online peers",
		func(a ASSample) float64 { return float64(a.Online) }},
	{"continuity", "continuity",
		func(a ASSample) float64 { return a.Continuity }},
	{"intra-as", "intra-AS %", func(a ASSample) float64 {
		if !a.IntraValid {
			return math.NaN()
		}
		return a.IntraPct
	}},
}

// perASPlots renders one result's per-AS series: one chart per metric, one
// series per tracked AS. Empty when the run sampled no per-AS breakdown.
func perASPlots(r *Result, scenario string) []plot.Artifact {
	if len(r.Series) == 0 || len(r.Series[0].PerAS) == 0 {
		return nil
	}
	ases := r.Series[0].PerAS
	var arts []plot.Artifact
	for _, m := range asMetrics {
		l := &plot.Line{
			Title:  fmt.Sprintf("per-AS %s — %s, scenario %q", m.ylabel, r.App, scenario),
			XLabel: "virtual time", YLabel: m.ylabel, XTime: true,
		}
		for slot, a := range ases {
			s := plot.Series{Name: fmt.Sprintf("AS %d", a.AS),
				X: make([]float64, len(r.Series)), Y: make([]float64, len(r.Series))}
			for i, smp := range r.Series {
				// Every sample breaks out the ASes tracked from the start.
				s.X[i] = smp.T.Seconds()
				s.Y[i] = m.get(smp.PerAS[slot])
			}
			l.Series = append(l.Series, s)
		}
		arts = append(arts, plot.Artifact{
			Name:  fmt.Sprintf("per-as-%s-%s", m.name, plot.Slug(r.App)),
			Chart: l,
		})
	}
	return arts
}

// Figure1Plots renders each result's Figure-1 geographic breakdown as one
// grouped SVG bar chart: countries on the x axis, the peer/RX/TX shares as
// the three series — the graphical twin of RenderFigure1's ASCII bars.
func Figure1Plots(results []*Result) []plot.Artifact {
	var arts []plot.Artifact
	for _, r := range results {
		g := ComputeFigure1(r)
		b := &plot.Bar{
			Title:  fmt.Sprintf("Figure 1 — %s — geographic breakdown (%%)", g.App),
			YLabel: "%", Groups: g.Labels,
			Series: []plot.BarSeries{
				{Name: "# peers", Vals: g.Peers},
				{Name: "RX bytes", Vals: g.RX},
				{Name: "TX bytes", Vals: g.TX},
			},
		}
		arts = append(arts, plot.Artifact{Name: "fig1-" + plot.Slug(g.App), Chart: b})
	}
	return arts
}
