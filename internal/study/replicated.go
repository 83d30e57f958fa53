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

// column is a Metric every run measures.
func column(label string, decimals int, get func(experiment.Summary) float64) Metric {
	return Metric{Label: label, Decimals: decimals,
		Get: func(s experiment.Summary) (float64, bool) { return get(s), true }}
}

// batteryTable renders one row per battery: its label, then each metric
// aggregated over the battery's runs.
func (r *Result) batteryTable(title string, ms []Metric) *report.Table {
	header := []string{"App"}
	for _, m := range ms {
		header = append(header, m.Label)
	}
	t := report.NewTable(fmt.Sprintf("%s (mean±stderr over %d seeds)", title, r.Trials()), header...)
	for _, label := range r.batteries() {
		row := []string{label}
		for _, m := range ms {
			row = append(row, aggCell(r.accumulate(m, in(label)), m.Decimals))
		}
		t.Add(row...)
	}
	return t
}

// TableII renders the aggregated experiment-summary table: each cell is the
// mean ± stderr across seeds of the per-run probe mean (or max).
func (r *Result) TableII() *report.Table {
	return r.batteryTable("TABLE II — Summary of experiments", []Metric{
		column("RX kbps mean", 0, func(s experiment.Summary) float64 { return s.RxKbpsMean }),
		column("RX kbps max", 0, func(s experiment.Summary) float64 { return s.RxKbpsMax }),
		column("TX kbps mean", 0, func(s experiment.Summary) float64 { return s.TxKbpsMean }),
		column("TX kbps max", 0, func(s experiment.Summary) float64 { return s.TxKbpsMax }),
		column("All peers mean", 0, func(s experiment.Summary) float64 { return s.AllPeersMean }),
		column("All peers max", 0, func(s experiment.Summary) float64 { return s.AllPeersMax }),
		column("Contrib RX mean", 0, func(s experiment.Summary) float64 { return s.ContribRxMean }),
		column("Contrib RX max", 0, func(s experiment.Summary) float64 { return s.ContribRxMax }),
		column("Contrib TX mean", 0, func(s experiment.Summary) float64 { return s.ContribTxMean }),
		column("Contrib TX max", 0, func(s experiment.Summary) float64 { return s.ContribTxMax }),
	})
}

// TableIII renders the aggregated self-induced-bias table.
func (r *Result) TableIII() *report.Table {
	return r.batteryTable("TABLE III — NAPA-WINE self-induced bias", []Metric{
		column("Contrib Peer%", 1, func(s experiment.Summary) float64 { return s.SelfBiasContrib.PeerPct }),
		column("Contrib Bytes%", 1, func(s experiment.Summary) float64 { return s.SelfBiasContrib.BytePct }),
		column("All Peer%", 1, func(s experiment.Summary) float64 { return s.SelfBiasAll.PeerPct }),
		column("All Bytes%", 1, func(s experiment.Summary) float64 { return s.SelfBiasAll.BytePct }),
	})
}

// HealthTable renders the run-health panel: hop medians, playout continuity
// and event throughput per battery — the replicated version of the
// single-run diagnostics cmd/napawine prints under Table IV.
func (r *Result) HealthTable() *report.Table {
	return r.batteryTable("Sweep health", []Metric{
		column("Hop median", 1, func(s experiment.Summary) float64 { return s.HopMedian }),
		column("Continuity", 3, func(s experiment.Summary) float64 { return s.MeanContinuity }),
		column("Events/run", 0, func(s experiment.Summary) float64 { return float64(s.Events) }),
		column("Unlocated", 1, func(s experiment.Summary) float64 { return float64(s.Unlocated) }),
	})
}

// TableIV renders the aggregated network-awareness table. A cell aggregates
// only the runs in which it was measurable; if no run measured it the cell
// prints the paper's dash.
func (r *Result) TableIV() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("TABLE IV — Network awareness (mean±stderr over %d seeds)", r.Trials()),
		append([]string{"Net", "App"}, experiment.TableIVColumns[:]...)...)
	labels := r.batteries()
	for _, prop := range []string{"BW", "AS", "CC", "NET", "HOP"} {
		for _, label := range labels {
			row := []string{prop, label}
			for col := range experiment.TableIVColumns {
				acc := r.accumulate(Metric{Get: tableIVValue(prop, col)}, in(label))
				row = append(row, aggCell(acc, 1))
			}
			t.Add(row...)
		}
	}
	return t
}

// atBucket lifts a per-sample accessor to a Metric over run summaries: the
// value in bucket b, unmeasured in runs whose series is shorter.
func atBucket(b int, get func(experiment.SeriesSample) (float64, bool)) Metric {
	return Metric{Get: func(s experiment.Summary) (float64, bool) {
		if b >= len(s.Series) {
			return 0, false
		}
		return get(s.Series[b])
	}}
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
	header := []string{"T", "App"}
	for _, m := range experiment.SeriesMetrics {
		header = append(header, m.Column)
	}
	t := report.NewTable(
		fmt.Sprintf("Time series — scenario %q (mean±stderr over %d seeds)", r.Cells[0].Scenario, r.Trials()),
		append(header, "Tracker")...)
	labels := r.batteries()
	for b := 0; b < buckets; b++ {
		for _, label := range labels {
			smp, ok := r.sampleAt(label, b)
			if !ok {
				continue
			}
			row := []string{smp.T.String(), label}
			for _, m := range experiment.SeriesMetrics {
				row = append(row, aggCell(r.accumulate(atBucket(b, m.Get), in(label)), m.Decimals))
			}
			t.Add(append(row, experiment.TrackerMark(smp.TrackerUp))...)
		}
	}
	return t
}
