// Package sweep renders a replicated study — applications × optional
// profile variants × seeds — as the paper's tables with error bars.
//
// The paper's tables print one number per (property, application) cell from
// a single measurement campaign; Silverston & Fourmaux's comparison work
// and Clegg et al.'s locality studies both show those numbers are noisy
// across trials. Of folds a study.Result's seed axis away and every table
// here prints a cell as mean ± standard error across those trials. Nothing
// here executes anything: a study.Study describes the grid and study.Run
// (or a fleet) runs it, reducing each cell to its experiment.Summary.
package sweep

import (
	"fmt"

	"napawine/internal/experiment"
	"napawine/internal/report"
	"napawine/internal/stats"
	"napawine/internal/study"
)

// Group is one (application, variant) battery: its label and the per-seed
// summaries in seed order.
type Group struct {
	App     string
	Variant string
	// Label is App, or "App/Variant" for ablation groups.
	Label     string
	Summaries []experiment.Summary
}

// Result is a study result regrouped for mean±stderr rendering.
type Result struct {
	// Scenario labels the series table and plots ("" = stationary).
	Scenario string
	Seeds    []int64
	Groups   []Group
}

// Trials reports the number of seeds per group.
func (r *Result) Trials() int { return len(r.Seeds) }

// Of regroups a study result by folding its seed axis: seed is the
// innermost grid axis, so each contiguous run of len(Seeds) cells is one
// group, in grid order. Groups are labelled by application and variant
// only — the renderer is meant for grids whose strategy, scenario and
// congestion axes are single-valued, which is what the CLI's flags build.
func Of(res *study.Result) *Result {
	n := max(len(res.Seeds), 1)
	r := &Result{Seeds: res.Seeds, Groups: make([]Group, 0, len(res.Cells)/n)}
	for i := 0; i+n <= len(res.Cells); i += n {
		c := res.Cells[i]
		g := Group{App: c.App, Variant: c.Variant, Label: c.App,
			Summaries: make([]experiment.Summary, n)}
		if c.Variant != "" {
			g.Label += "/" + c.Variant
		}
		for j := range g.Summaries {
			g.Summaries[j] = res.Cells[i+j].Summary
		}
		r.Scenario = c.Scenario
		r.Groups = append(r.Groups, g)
	}
	return r
}

// columnStat folds one per-run value across a group's trials.
func columnStat(g Group, get func(experiment.Summary) float64) stats.Accumulator {
	var acc stats.Accumulator
	for _, s := range g.Summaries {
		acc.Add(get(s))
	}
	return acc
}

func meanErr(acc stats.Accumulator, decimals int) string {
	return report.MeanErr(acc.Mean(), acc.StdErr(), decimals)
}

// groupTable renders one row per group: its label, then every column as
// mean ± stderr across the group's trials.
func (r *Result) groupTable(t *report.Table, decimals int, cols ...func(experiment.Summary) float64) *report.Table {
	for _, g := range r.Groups {
		cells := make([]string, 0, len(cols)+1)
		cells = append(cells, g.Label)
		for _, get := range cols {
			cells = append(cells, meanErr(columnStat(g, get), decimals))
		}
		t.Add(cells...)
	}
	return t
}

// TableII renders the aggregated experiment-summary table: each cell is the
// mean ± stderr across seeds of the per-run probe mean (or max).
func (r *Result) TableII() *report.Table {
	return r.groupTable(report.NewTable(
		fmt.Sprintf("TABLE II — Summary of experiments (mean±stderr over %d seeds)", r.Trials()),
		"App", "RX kbps mean", "RX kbps max", "TX kbps mean", "TX kbps max",
		"All peers mean", "All peers max", "Contrib RX mean", "Contrib RX max",
		"Contrib TX mean", "Contrib TX max"), 0,
		func(s experiment.Summary) float64 { return s.RxKbpsMean },
		func(s experiment.Summary) float64 { return s.RxKbpsMax },
		func(s experiment.Summary) float64 { return s.TxKbpsMean },
		func(s experiment.Summary) float64 { return s.TxKbpsMax },
		func(s experiment.Summary) float64 { return s.AllPeersMean },
		func(s experiment.Summary) float64 { return s.AllPeersMax },
		func(s experiment.Summary) float64 { return s.ContribRxMean },
		func(s experiment.Summary) float64 { return s.ContribRxMax },
		func(s experiment.Summary) float64 { return s.ContribTxMean },
		func(s experiment.Summary) float64 { return s.ContribTxMax })
}

// TableIII renders the aggregated self-induced-bias table.
func (r *Result) TableIII() *report.Table {
	return r.groupTable(report.NewTable(
		fmt.Sprintf("TABLE III — NAPA-WINE self-induced bias (mean±stderr over %d seeds)", r.Trials()),
		"App", "Contrib Peer%", "Contrib Bytes%", "All Peer%", "All Bytes%"), 1,
		func(s experiment.Summary) float64 { return s.SelfBiasContrib.PeerPct },
		func(s experiment.Summary) float64 { return s.SelfBiasContrib.BytePct },
		func(s experiment.Summary) float64 { return s.SelfBiasAll.PeerPct },
		func(s experiment.Summary) float64 { return s.SelfBiasAll.BytePct })
}

// TableIV renders the aggregated network-awareness table. A cell aggregates
// only the trials in which it was measurable; if no trial measured it the
// cell prints the paper's dash.
func (r *Result) TableIV() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("TABLE IV — Network awareness (mean±stderr over %d seeds)", r.Trials()),
		append([]string{"Net", "App"}, experiment.TableIVColumns[:]...)...)
	for _, prop := range []string{"BW", "AS", "CC", "NET", "HOP"} {
		for _, g := range r.Groups {
			cells := make([]string, 0, 10)
			cells = append(cells, prop, g.Label)
			for col := 0; col < 8; col++ {
				var acc stats.Accumulator
				for _, s := range g.Summaries {
					for _, cell := range s.TableIV {
						if cell.Property == prop && cell.Valid[col] {
							acc.Add(cell.Vals[col])
						}
					}
				}
				cells = append(cells,
					report.MeanErrOrDash(acc.Mean(), acc.StdErr(), 1, acc.N() > 0))
			}
			t.Add(cells...)
		}
	}
	return t
}

// buckets reports the longest time series any trial recorded (0 = the
// study ran no scenario).
func (r *Result) buckets() int {
	n := 0
	for _, g := range r.Groups {
		for _, s := range g.Summaries {
			n = max(n, len(s.Series))
		}
	}
	return n
}

// SeriesTable renders the aggregated per-bucket time series of a scenario
// sweep: each (bucket, group) cell is the mean ± stderr across seeds. The
// intra-AS column aggregates only the trials whose bucket moved video (the
// same measurable-trials rule Table IV uses); a bucket no trial measured
// prints the dash. Returns nil when the sweep ran no scenario.
func (r *Result) SeriesTable() *report.Table {
	buckets := r.buckets()
	if buckets == 0 {
		return nil
	}
	t := report.NewTable(
		fmt.Sprintf("Time series — scenario %q (mean±stderr over %d seeds)", r.Scenario, r.Trials()),
		"T", "App", "Online", "Continuity", "Intra-AS%", "Video kbps", "Tracker")
	for b := 0; b < buckets; b++ {
		for _, g := range r.Groups {
			var online, cont, intra, kbps stats.Accumulator
			label := ""
			trackerUp := true
			for _, s := range g.Summaries {
				if b >= len(s.Series) {
					continue
				}
				smp := s.Series[b]
				label = smp.T.String()
				// Tracker state is part of the scenario timeline, not the
				// seed, so every trial agrees; keep the last seen.
				trackerUp = smp.TrackerUp
				online.Add(float64(smp.Online))
				cont.Add(smp.Continuity)
				kbps.Add(smp.VideoKbps)
				if smp.IntraASValid {
					intra.Add(smp.IntraASPct)
				}
			}
			if online.N() == 0 {
				continue
			}
			t.Add(label, g.Label,
				meanErr(online, 0),
				meanErr(cont, 3),
				report.MeanErrOrDash(intra.Mean(), intra.StdErr(), 1, intra.N() > 0),
				meanErr(kbps, 0),
				experiment.TrackerMark(trackerUp))
		}
	}
	return t
}

// HealthTable renders the sweep's run-health panel: hop medians, playout
// continuity and event throughput per group — the replicated version of the
// single-run diagnostics cmd/napawine prints under Table IV.
func (r *Result) HealthTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Sweep health (mean±stderr over %d seeds)", r.Trials()),
		"App", "Hop median", "Continuity", "Events/run", "Unlocated")
	for _, g := range r.Groups {
		hop := columnStat(g, func(s experiment.Summary) float64 { return s.HopMedian })
		cont := columnStat(g, func(s experiment.Summary) float64 { return s.MeanContinuity })
		ev := columnStat(g, func(s experiment.Summary) float64 { return float64(s.Events) })
		unl := columnStat(g, func(s experiment.Summary) float64 { return float64(s.Unlocated) })
		t.Add(g.Label, meanErr(hop, 1), meanErr(cont, 3), meanErr(ev, 0), meanErr(unl, 1))
	}
	return t
}
