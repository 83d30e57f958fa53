package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/plot"
	"napawine/internal/policy"
	"napawine/internal/report"
	"napawine/internal/scenario"
	"napawine/internal/study"
	"napawine/internal/world"
)

// printer writes tables and lines onto the run's output and keeps the first
// error, so renderers read straight through and the caller checks once.
type printer struct {
	out io.Writer
	csv bool
	err error
}

// table renders t — aligned ASCII or CSV; a nil table prints nothing.
func (p *printer) table(t *report.Table) {
	if p.err != nil || t == nil {
		return
	}
	if p.csv {
		p.err = t.RenderCSV(p.out)
		return
	}
	p.err = t.Render(p.out)
	p.printf("\n")
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.out, format, args...)
	}
}

// render prints a finished study and returns its SVG artifacts, in the
// format that follows from what the study is: a loaded grid prints its
// comparison table, a one-seed flag-built study prints as the paper does, a
// replicated one as mean ± stderr tables.
func (o *options) render(p *printer, res *study.Result) []plot.Artifact {
	switch {
	case o.fromStudy():
		p.table(res.ComparisonTable())
		return res.MetricBars()
	case o.paperFormat(res.Study):
		return o.renderPaper(p, res)
	}
	if o.show("table2") {
		p.table(res.TableII())
	}
	if o.show("table3") {
		p.table(res.TableIII())
	}
	if o.show("table4") {
		p.table(res.TableIV())
		p.table(res.HealthTable())
	}
	p.table(res.SeriesTable())
	return res.SeriesPlots()
}

// renderPaper prints the paper-format battery from the cells' full results,
// in the paper's application order.
func (o *options) renderPaper(p *printer, res *study.Result) []plot.Artifact {
	results := append([]*experiment.Result(nil), res.Full...)
	experiment.SortResults(results)
	if o.show("table2") {
		p.table(experiment.TableII(results))
	}
	if o.show("table3") {
		p.table(experiment.TableIII(results))
	}
	if o.show("table4") {
		p.table(experiment.TableIV(results))
		for _, r := range results {
			p.printf("%s: measured hop median %.0f, mean continuity %.3f\n",
				r.App, r.HopMedian, r.MeanContinuity)
		}
		p.printf("\n")
	}
	if o.show("fig1") && p.err == nil {
		p.err = experiment.RenderFigure1(p.out, results)
		p.printf("\n")
	}
	if o.show("fig2") && p.err == nil {
		p.err = experiment.RenderFigure2(p.out, results)
		p.printf("\n")
	}
	if o.show("hopsweep") {
		for _, r := range results {
			t, err := experiment.HopSweep(r, 15, 23)
			p.err = cmp.Or(p.err, err)
			p.table(t)
		}
	}
	p.table(experiment.SeriesTable(results))
	if slices.ContainsFunc(res.Cells, func(c study.Cell) bool { return c.QueueDepth > 0 }) {
		// Congestion ground truth, so a bounded-queue run documents its
		// loss regime (and CI can assert the queues actually dropped).
		for _, r := range results {
			p.printf("%s congestion: drops %d, retransmits %d, backoffs %d, loss %.2f%%\n",
				r.App, r.Drops, r.Retransmits, r.Backoffs, r.LossPct)
		}
		p.printf("\n")
	}
	return append(experiment.SeriesPlots(results), experiment.Figure1Plots(results)...)
}

// renderTableI prints the static testbed inventory.
func renderTableI(p *printer) error {
	t := report.NewTable("TABLE I — NAPA-WINE testbed",
		"Site", "CC", "AS", "High-bw hosts", "Home probes", "NAT", "FW")
	for _, s := range world.TableI() {
		homes := make([]string, 0, len(s.Homes))
		nat := s.HighBwNAT
		fw := 0
		for _, h := range s.Homes {
			homes = append(homes, h.Access.Spec.String())
			if h.Access.NAT {
				nat++
			}
			if h.Access.Firewall {
				fw++
			}
		}
		fwMark := fmt.Sprintf("%d", fw)
		if s.HighBwFW {
			fwMark += "+site"
		}
		t.Add(s.Name, string(s.Country), s.ASLabel,
			fmt.Sprintf("%d", s.HighBw), strings.Join(homes, " "),
			fmt.Sprintf("%d", nat), fwMark)
	}
	if p.csv {
		return t.RenderCSV(p.out)
	}
	return t.Render(p.out)
}

// banner announces the study about to run — every path, one line, derived
// from the study itself so it cannot disagree with what executes.
func banner(w io.Writer, st *study.Study) {
	each := "app-default duration"
	if st.Duration > 0 {
		each = time.Duration(st.Duration).String() + " each"
	}
	size := fmt.Sprintf("scale %.2f", cmp.Or(st.PeerFactor, 1))
	if st.Peers > 0 {
		size = fmt.Sprintf("%d peers", st.Peers)
	}
	fmt.Fprintf(w, "study %s: %d runs (%d apps × %d strategies × %d scenarios × %d variants × %d congestion levels × %d seeds), %s, %s\n",
		st.Name, st.Runs(), len(st.AppList()), len(st.StrategyList()), len(st.ScenarioList()),
		len(st.VariantList()), len(st.QueueDepthList()), len(st.SeedList()), each, size)
}

// progress prints one line per finished study cell, so a long grid shows
// movement while tables wait for the end. Cell identity is the RunInfo every
// observer gets, so the terminal and the dashboard agree on which is which.
type progress struct {
	w     io.Writer
	mu    sync.Mutex
	done  int
	start time.Time
}

func (p *progress) OnRunStart(study.RunInfo)                        {}
func (p *progress) OnSample(study.RunInfo, experiment.SeriesSample) {}

func (p *progress) OnRunDone(info study.RunInfo, sum experiment.Summary, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if err != nil {
		fmt.Fprintf(p.w, "cell %d/%d %s FAILED: %v\n", info.Index+1, info.Total, info.Label(), err)
		return
	}
	fmt.Fprintf(p.w, "cell %d/%d %s done (continuity %.3f, %d/%d finished, %v elapsed)\n",
		info.Index+1, info.Total, info.Label(), sum.MeanContinuity,
		p.done, info.Total, time.Since(p.start).Round(time.Second))
}

// listing renders the registry -list names ("" without -list).
func (o *options) listing() string {
	var b strings.Builder
	switch o.list {
	case "scenarios":
		b.WriteString("registered scenarios:\n")
		for _, name := range scenario.Names() {
			if s, err := scenario.ByName(name); err == nil {
				fmt.Fprintf(&b, "  %-11s %s\n", name, s.Description)
			}
		}
	case "strategies":
		b.WriteString("registered chunk strategies:\n")
		for _, name := range policy.StrategyNames() {
			fmt.Fprintf(&b, "  %-14s %s\n", name, policy.StrategyDescription(name))
		}
		fmt.Fprintf(&b, "parameterized family:\n  %s\n", policy.HybridGrammar)
	case "studies":
		b.WriteString("registered studies:\n")
		for _, name := range study.Names() {
			if st, err := study.ByName(name); err == nil {
				fmt.Fprintf(&b, "  %-20s %s (%d runs)\n", name, st.Description, st.Runs())
			}
		}
	}
	return b.String()
}
