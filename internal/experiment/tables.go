package experiment

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"napawine/internal/core"
	"napawine/internal/report"
	"napawine/internal/stats"
	"napawine/internal/topology"
)

// Metric is one per-run number a table column or a study pivot reads: a
// label, a print precision and an accessor over the run's Summary. The bool
// reports whether the run measured the metric at all — unmeasurable cells
// print the paper's dash and aggregate as nothing, never as zeros.
type Metric struct {
	Key      string
	Label    string
	Decimals int
	Get      func(Summary) (float64, bool)
}

// column is a Metric every run measures.
func column(label string, decimals int, get func(Summary) float64) Metric {
	return Metric{Label: label, Decimals: decimals,
		Get: func(s Summary) (float64, bool) { return get(s), true }}
}

// TableIIColumns are Table II's columns: mean and maximum, across probes, of
// stream rates, peer population and contributor counts.
var TableIIColumns = []Metric{
	column("RX kbps mean", 0, func(s Summary) float64 { return s.RxKbpsMean }),
	column("RX kbps max", 0, func(s Summary) float64 { return s.RxKbpsMax }),
	column("TX kbps mean", 0, func(s Summary) float64 { return s.TxKbpsMean }),
	column("TX kbps max", 0, func(s Summary) float64 { return s.TxKbpsMax }),
	column("All peers mean", 0, func(s Summary) float64 { return s.AllPeersMean }),
	column("All peers max", 0, func(s Summary) float64 { return s.AllPeersMax }),
	column("Contrib RX mean", 0, func(s Summary) float64 { return s.ContribRxMean }),
	column("Contrib RX max", 0, func(s Summary) float64 { return s.ContribRxMax }),
	column("Contrib TX mean", 0, func(s Summary) float64 { return s.ContribTxMean }),
	column("Contrib TX max", 0, func(s Summary) float64 { return s.ContribTxMax }),
}

// TableIIIColumns are Table III's columns: the NAPA-WINE self-induced bias
// among contributors and among all peers.
var TableIIIColumns = []Metric{
	column("Contrib Peer%", 1, func(s Summary) float64 { return s.SelfBiasContrib.PeerPct }),
	column("Contrib Bytes%", 1, func(s Summary) float64 { return s.SelfBiasContrib.BytePct }),
	column("All Peer%", 1, func(s Summary) float64 { return s.SelfBiasAll.PeerPct }),
	column("All Bytes%", 1, func(s Summary) float64 { return s.SelfBiasAll.BytePct }),
}

// tableIVProperties are Table IV's property groups in the paper's row order.
var tableIVProperties = []string{"BW", "AS", "CC", "NET", "HOP"}

// TableIVValue reads one Table IV cell — a property row's col-th column —
// from a run summary; unmeasurable cells report false, like the paper's
// dashes.
func TableIVValue(prop string, col int) func(Summary) (float64, bool) {
	return func(s Summary) (float64, bool) {
		for _, cell := range s.TableIV {
			if cell.Property == prop {
				return cell.Vals[col], cell.Valid[col]
			}
		}
		return 0, false
	}
}

// Rows are what sets one rendering of a table apart from another: one label
// per row and how a row's cell reads a metric. The single-run tables have a
// row per Result and print its value; the replicated ones (internal/study)
// have a row per seed battery and print mean±stderr. Sample returns bucket b
// of a row's time series, for its instant and tracker state; false when no
// run of the row reached it.
type Rows struct {
	Labels []string
	Cell   func(row int, m Metric) string
	Sample func(row, b int) (SeriesSample, bool)
}

// Table renders one row per label, one column per metric.
func (rs Rows) Table(title string, ms []Metric) *report.Table {
	header := []string{"App"}
	for _, m := range ms {
		header = append(header, m.Label)
	}
	t := report.NewTable(title, header...)
	for i, label := range rs.Labels {
		row := []string{label}
		for _, m := range ms {
			row = append(row, rs.Cell(i, m))
		}
		t.Add(row...)
	}
	return t
}

// TableIV renders the network-awareness table: property-major, one row per
// (property, label), the eight TableIVColumns each.
func (rs Rows) TableIV(title string) *report.Table {
	t := report.NewTable(title, append([]string{"Net", "App"}, TableIVColumns[:]...)...)
	for _, prop := range tableIVProperties {
		for i, label := range rs.Labels {
			row := []string{prop, label}
			for col := range TableIVColumns {
				row = append(row, rs.Cell(i, Metric{Decimals: 1, Get: TableIVValue(prop, col)}))
			}
			t.Add(row...)
		}
	}
	return t
}

// SeriesTable renders a scenario's per-bucket time series bucket-major, so
// each row's response to the same instant sits on adjacent lines; a row
// whose runs stopped short of a bucket skips it. Nil for zero buckets (no
// scenario ran).
func (rs Rows) SeriesTable(title string, buckets int) *report.Table {
	if buckets == 0 {
		return nil
	}
	header := []string{"T", "App"}
	for _, m := range SeriesMetrics {
		header = append(header, m.Column)
	}
	t := report.NewTable(title, append(header, "Tracker")...)
	for b := 0; b < buckets; b++ {
		for i, label := range rs.Labels {
			smp, ok := rs.Sample(i, b)
			if !ok {
				continue
			}
			row := []string{smp.T.String(), label}
			for _, m := range SeriesMetrics {
				row = append(row, rs.Cell(i, m.At(b)))
			}
			// The outage marker is what makes a tracker-outage window
			// visible in an otherwise smooth table.
			tracker := "up"
			if !smp.TrackerUp {
				tracker = "DOWN"
			}
			t.Add(append(row, tracker)...)
		}
	}
	return t
}

// runRows are the single-run tables' rows: one per result, each cell the
// run's own value.
func runRows(results []*Result) Rows {
	labels := make([]string, len(results))
	for i, r := range results {
		labels[i] = r.App
	}
	return Rows{
		Labels: labels,
		Cell: func(i int, m Metric) string {
			v, ok := m.Get(results[i].Summary)
			return report.ValueOrDash(v, m.Decimals, ok)
		},
		Sample: func(i, b int) (SeriesSample, bool) {
			if s := results[i].Series; b < len(s) {
				return s[b], true
			}
			return SeriesSample{}, false
		},
	}
}

// TableII builds the experiment-summary table (paper Table II).
func TableII(results []*Result) *report.Table {
	return runRows(results).Table("TABLE II — Summary of experiments (mean / max across probes)", TableIIColumns)
}

// TableIII builds the NAPA-WINE self-induced-bias table (paper Table III).
func TableIII(results []*Result) *report.Table {
	return runRows(results).Table("TABLE III — NAPA-WINE self-induced bias", TableIIIColumns)
}

// TableIV renders the network-awareness table (paper Table IV) for a set of
// per-application results.
func TableIV(results []*Result) *report.Table {
	return runRows(results).TableIV("TABLE IV — Network awareness as peer-wise and byte-wise bias")
}

// GeoBreakdown is one application's Figure-1 dataset: percentage of peers,
// received bytes and transmitted bytes per country group.
type GeoBreakdown struct {
	App    string
	Labels []string // CN, HU, IT, FR, PL, *
	Peers  []float64
	RX     []float64
	TX     []float64
}

// figure1Countries are the named groups of Figure 1; everything else
// aggregates under "*".
var figure1Countries = []topology.CC{"CN", "HU", "IT", "FR", "PL"}

// ComputeFigure1 reduces a result to its geographic breakdown.
func ComputeFigure1(r *Result) GeoBreakdown {
	idx := map[topology.CC]int{}
	labels := make([]string, 0, len(figure1Countries)+1)
	for i, cc := range figure1Countries {
		idx[cc] = i
		labels = append(labels, string(cc))
	}
	star := len(figure1Countries)
	labels = append(labels, "*")

	peers := make([]float64, star+1)
	rx := make([]float64, star+1)
	tx := make([]float64, star+1)
	var totalPeers, totalRx, totalTx float64
	for _, o := range r.Observations {
		h, ok := r.World.Topo.Locate(netip.AddrFrom4(o.Peer))
		bucket := star
		if ok {
			if i, named := idx[h.Country]; named {
				bucket = i
			}
		}
		peers[bucket]++
		rx[bucket] += float64(o.TotalDown)
		tx[bucket] += float64(o.TotalUp)
		totalPeers++
		totalRx += float64(o.TotalDown)
		totalTx += float64(o.TotalUp)
	}
	for i := range peers {
		peers[i] = stats.Percent(peers[i], totalPeers)
		rx[i] = stats.Percent(rx[i], totalRx)
		tx[i] = stats.Percent(tx[i], totalTx)
	}
	return GeoBreakdown{App: r.App, Labels: labels, Peers: peers, RX: rx, TX: tx}
}

// RenderFigure1 writes the Figure-1 bars for a set of results.
func RenderFigure1(w io.Writer, results []*Result) error {
	for _, r := range results {
		g := ComputeFigure1(r)
		sections := []struct {
			name   string
			series []float64
		}{
			{"# peers", g.Peers}, {"RX bytes", g.RX}, {"TX bytes", g.TX},
		}
		for _, s := range sections {
			bars := report.NewBars(fmt.Sprintf("Figure 1 — %s — %s (%%)", g.App, s.name))
			for i, label := range g.Labels {
				bars.Add(label, s.series[i], "")
			}
			if err := bars.Render(w, 50); err != nil {
				return err
			}
		}
	}
	return nil
}

// ASTraffic is one application's Figure-2 dataset: the AS-to-AS matrix of
// average exchanged bytes between high-bandwidth probes plus the
// intra/inter ratio R.
type ASTraffic struct {
	App    string
	Labels []string // AS1..AS6
	// Mean bytes transferred per directed probe pair from AS-i to AS-j.
	Mean [][]float64
	// R is mean intra-AS pair traffic over mean inter-AS pair traffic.
	R     float64
	ROk   bool
	Pairs int
}

// ComputeFigure2 reduces a result to the Figure-2 statistic. Traffic is
// taken from the upload side of each probe's observations about other
// high-bandwidth probes, so every directed pair is counted exactly once;
// pairs that never exchanged a packet count as zero, like the white cells
// of the paper's plot.
//
// Same-subnet probe pairs are excluded from both the sums and the pair
// counts, following §IV-B: "excluding the traffic exchanged among peers in
// the same SubNet" — otherwise the campus LANs dominate every diagonal
// cell and R measures subnet locality, not AS locality. The surviving
// intra-AS population is the PoliTO↔UniTN cross-campus traffic inside AS2.
func ComputeFigure2(r *Result) ASTraffic {
	labels := []string{"AS1", "AS2", "AS3", "AS4", "AS5", "AS6"}
	li := map[string]int{}
	for i, l := range labels {
		li[l] = i
	}
	// High-bandwidth institutional probes' subnets, bucketed per AS.
	perAS := map[int][]topology.SubnetID{}
	for _, p := range r.World.Probes {
		if p.HighBandwidth() && p.ASName != "ASx" {
			perAS[li[p.ASName]] = append(perAS[li[p.ASName]], p.Host.Subnet)
		}
	}
	// Pair counts excluding same-subnet pairs, a probe with itself included.
	pairCount := make([][]int, len(labels))
	for i := range pairCount {
		pairCount[i] = make([]int, len(labels))
	}
	for i := range labels {
		for j := range labels {
			for _, a := range perAS[i] {
				for _, b := range perAS[j] {
					if i != j || a != b {
						pairCount[i][j]++
					}
				}
			}
		}
	}

	sum := make([][]float64, len(labels))
	for i := range sum {
		sum[i] = make([]float64, len(labels))
	}
	for _, o := range r.Observations {
		if !o.PeerIsProbe || o.SameSubnet {
			continue
		}
		probe, ok := r.ProbeOf(netip.AddrFrom4(o.Probe))
		if !ok || !probe.HighBandwidth() || probe.ASName == "ASx" {
			continue
		}
		peer, ok := r.ProbeOf(netip.AddrFrom4(o.Peer))
		if !ok || !peer.HighBandwidth() || peer.ASName == "ASx" {
			continue
		}
		sum[li[probe.ASName]][li[peer.ASName]] += float64(o.VideoUp)
	}
	mean := make([][]float64, len(labels))
	var intraSum, interSum float64
	var intraPairs, interPairs int
	for i := range labels {
		mean[i] = make([]float64, len(labels))
		for j := range labels {
			pairs := pairCount[i][j]
			if pairs > 0 {
				mean[i][j] = sum[i][j] / float64(pairs)
			}
			if i == j {
				intraSum += sum[i][j]
				intraPairs += pairs
			} else {
				interSum += sum[i][j]
				interPairs += pairs
			}
		}
	}
	out := ASTraffic{App: r.App, Labels: labels, Mean: mean, Pairs: intraPairs + interPairs}
	if interSum > 0 && intraPairs > 0 {
		out.R = (intraSum / float64(intraPairs)) / (interSum / float64(interPairs))
		out.ROk = true
	}
	return out
}

// RenderFigure2 writes the Figure-2 matrices (values in KB per pair).
func RenderFigure2(w io.Writer, results []*Result) error {
	for _, r := range results {
		f := ComputeFigure2(r)
		title := fmt.Sprintf("Figure 2 — %s — mean KB exchanged per high-bw probe pair (R=%s)",
			f.App, ratioString(f))
		err := report.Matrix(w, title, f.Labels, func(i, j int) string {
			return fmt.Sprintf("%.0f", f.Mean[i][j]/1000)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func ratioString(f ASTraffic) string {
	if !f.ROk {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", f.R)
}

// HopSweep evaluates the HOP preference indices across a band of
// thresholds around the paper's fixed 19, the A2 ablation: it shows the
// 50/50 split is not an artifact of the exact cut.
func HopSweep(r *Result, lo, hi int) (*report.Table, error) {
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
			report.ValueOrDash(d.BytePct, 1, d.Valid()),
			report.ValueOrDash(d.PeerPct, 1, d.Valid()),
			report.ValueOrDash(u.BytePct, 1, u.Valid()),
			report.ValueOrDash(u.PeerPct, 1, u.Valid()))
	}
	return t, nil
}

// SortResults orders results in the paper's application order.
func SortResults(results []*Result) {
	rank := map[string]int{"PPLive": 0, "SopCast": 1, "TVAnts": 2}
	sort.SliceStable(results, func(i, j int) bool {
		return rank[results[i].App] < rank[results[j].App]
	})
}
