package experiment

import (
	"fmt"
	"io"
	"sort"

	"napawine/internal/core"
	"napawine/internal/report"
	"napawine/internal/stats"
	"napawine/internal/topology"
)

// TableII builds the experiment-summary table (paper Table II): mean and
// maximum, across probes, of stream rates, peer population and contributor
// counts.
func TableII(results []*Result) *report.Table {
	t := report.NewTable(
		"TABLE II — Summary of experiments (mean / max across probes)",
		"App", "RX kbps mean", "RX kbps max", "TX kbps mean", "TX kbps max",
		"All peers mean", "All peers max", "Contrib RX mean", "Contrib RX max",
		"Contrib TX mean", "Contrib TX max")
	for _, r := range results {
		rx, tx, all, crx, ctx := r.probeAccums()
		t.Add(r.App,
			fmt.Sprintf("%.0f", rx.Mean()), fmt.Sprintf("%.0f", rx.Max()),
			fmt.Sprintf("%.0f", tx.Mean()), fmt.Sprintf("%.0f", tx.Max()),
			fmt.Sprintf("%.0f", all.Mean()), fmt.Sprintf("%.0f", all.Max()),
			fmt.Sprintf("%.0f", crx.Mean()), fmt.Sprintf("%.0f", crx.Max()),
			fmt.Sprintf("%.0f", ctx.Mean()), fmt.Sprintf("%.0f", ctx.Max()))
	}
	return t
}

// TableIII builds the NAPA-WINE self-induced-bias table (paper Table III).
func TableIII(results []*Result) *report.Table {
	t := report.NewTable(
		"TABLE III — NAPA-WINE self-induced bias",
		"App", "Contrib Peer%", "Contrib Bytes%", "All Peer%", "All Bytes%")
	for _, r := range results {
		contrib := core.ComputeSelfBias(r.Observations, r.Cfg.Contrib, true)
		all := core.ComputeSelfBias(r.Observations, r.Cfg.Contrib, false)
		t.Add(r.App,
			report.Pct(contrib.PeerPct), report.Pct(contrib.BytePct),
			report.Pct(all.PeerPct), report.Pct(all.BytePct))
	}
	return t
}

// TableIVCell carries the four download and four upload indices for one
// (property, application) pair, in the paper's column order.
type TableIVCell struct {
	Property string
	App      string
	// Download: primed then full-contributor variants.
	BDPrime, PDPrime, BD, PD core.Metrics
	// Upload.
	BUPrime, PUPrime, BU, PU core.Metrics
}

// ComputeTableIV evaluates all five properties for one result.
//
// Following §III-C, the BW metric is evaluated on the download side only:
// access bandwidth of a remote peer can be inferred solely from packet
// trains it sends, so the paper "limitedly consider[s] the downlink
// direction for the BW metric" and prints dashes on the upload side. The
// emulated swarm would sometimes make the upload side measurable (partners
// exchange video both ways), but the methodology is reproduced as
// published.
func ComputeTableIV(r *Result) []TableIVCell {
	cells := make([]TableIVCell, 0, 5)
	for _, c := range core.PaperClassifiers() {
		cell := TableIVCell{Property: c.Name(), App: r.App}
		cell.BDPrime = core.Compute(r.Observations, core.Download, c, r.Cfg.Contrib, true)
		cell.PDPrime = cell.BDPrime
		cell.BD = core.Compute(r.Observations, core.Download, c, r.Cfg.Contrib, false)
		cell.PD = cell.BD
		if c.Name() == "BW" {
			// Upload cells stay zero-valued (Valid() == false → dash).
			cell.BUPrime = core.Metrics{Property: "BW", Direction: core.Upload, ExcludeProbes: true}
			cell.PUPrime = cell.BUPrime
			cell.BU = core.Metrics{Property: "BW", Direction: core.Upload}
			cell.PU = cell.BU
		} else {
			cell.BUPrime = core.Compute(r.Observations, core.Upload, c, r.Cfg.Contrib, true)
			cell.PUPrime = cell.BUPrime
			cell.BU = core.Compute(r.Observations, core.Upload, c, r.Cfg.Contrib, false)
			cell.PU = cell.BU
		}
		cells = append(cells, cell)
	}
	return cells
}

// TableIV renders the network-awareness table (paper Table IV) for a set
// of per-application results. Column order and dash conventions come from
// flattenTableIV, shared with the sweep aggregation.
func TableIV(results []*Result) *report.Table {
	t := report.NewTable(
		"TABLE IV — Network awareness as peer-wise and byte-wise bias",
		append([]string{"Net", "App"}, TableIVColumns[:]...)...)
	flat := make([][]SummaryCell, len(results))
	for i, r := range results {
		flat[i] = flattenTableIV(r)
	}
	for _, prop := range []string{"BW", "AS", "CC", "NET", "HOP"} {
		for i, r := range results {
			for _, cell := range flat[i] {
				if cell.Property != prop {
					continue
				}
				row := make([]string, 0, 10)
				row = append(row, prop, r.App)
				for col := 0; col < 8; col++ {
					row = append(row, report.PctOrDash(cell.Vals[col], cell.Valid[col]))
				}
				t.Add(row...)
			}
		}
	}
	return t
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
		h, ok := r.World.Topo.Locate(o.Peer)
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
	// High-bandwidth institutional probes, bucketed per AS and subnet.
	type probeInfo struct {
		as     int
		subnet topology.SubnetID
	}
	infos := map[string]probeInfo{} // by label
	perAS := map[int][]probeInfo{}
	for _, p := range r.World.Probes {
		if p.HighBandwidth() && p.ASName != "ASx" {
			pi := probeInfo{as: li[p.ASName], subnet: p.Host.Subnet}
			infos[p.Label] = pi
			perAS[pi.as] = append(perAS[pi.as], pi)
		}
	}
	// Pair counts excluding same-subnet pairs.
	pairCount := make([][]int, len(labels))
	for i := range pairCount {
		pairCount[i] = make([]int, len(labels))
	}
	for i := range labels {
		for j := range labels {
			for _, a := range perAS[i] {
				for _, b := range perAS[j] {
					if a == b && i == j {
						continue
					}
					if i == j && a.subnet == b.subnet {
						continue
					}
					pairCount[i][j]++
				}
			}
		}
	}
	// Diagonal self-pair correction: the loop above cannot distinguish
	// two distinct probes with identical (as, subnet) from a self-pair,
	// but those are same-subnet and excluded anyway, so only the distinct
	// subnet combinations remain — already correct.

	sum := make([][]float64, len(labels))
	for i := range sum {
		sum[i] = make([]float64, len(labels))
	}
	for _, o := range r.Observations {
		if !o.PeerIsProbe || o.SameSubnet {
			continue
		}
		probe, ok := r.ProbeOf(o.Probe)
		if !ok || !probe.HighBandwidth() || probe.ASName == "ASx" {
			continue
		}
		peer, ok := r.ProbeOf(o.Peer)
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
	if interPairs > 0 && interSum > 0 && intraPairs > 0 {
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
			report.PctOrDash(d.BytePct, d.Valid()),
			report.PctOrDash(d.PeerPct, d.Valid()),
			report.PctOrDash(u.BytePct, u.Valid()),
			report.PctOrDash(u.PeerPct, u.Valid()))
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
