package experiment

import (
	"napawine/internal/core"
	"napawine/internal/stats"
)

// Summary is the bounded-memory reduction of one run: every number a table,
// a study cell or a replicated sweep reads, and nothing else. A full Result
// retains one Observation per probe×peer pair plus the ground-truth ledger —
// tens of megabytes per run — so a battery of apps × seeds keeps each run's
// Summary the moment it completes and lets the Result go. Result embeds it.
type Summary struct {
	App  string
	Seed int64

	// Scenario names the workload timeline this run executed ("" = none);
	// Series carries its per-bucket time series. Bounded by construction:
	// the sampler never records more than scenario.MaxBuckets buckets per
	// run, so a sweep's summaries stay a few KB each no matter the run
	// length.
	Scenario string
	Series   []SeriesSample

	// Table II inputs: mean and max across this run's probes.
	RxKbpsMean, RxKbpsMax       float64
	TxKbpsMean, TxKbpsMax       float64
	AllPeersMean, AllPeersMax   float64
	ContribRxMean, ContribRxMax float64
	ContribTxMean, ContribTxMax float64

	// Table III inputs.
	SelfBiasContrib core.SelfBias
	SelfBiasAll     core.SelfBias

	// Table IV inputs, one cell per paper property in classifier order.
	TableIV []SummaryCell

	// Run health: the observed hop median (paper: 18–20); the mean playout
	// continuity across online peers at the end of the run, the sanity
	// check that the swarm sustained the stream; the engine's processed
	// event count; and the peers the registry could not place.
	HopMedian      float64
	MeanContinuity float64
	Events         uint64
	Unlocated      int

	// Study comparison metrics: the source's video upload rate and its
	// share of all video bytes moved (VideoBytes > 0 makes the share
	// measurable), and the mean virtual time in seconds from a chunk's
	// calendar birth to its first delivery at a peer, across
	// DiffusionChunks deliveries (> 0 makes it measurable).
	SourceKbps      float64
	SourceSharePct  float64
	VideoBytes      int64
	DiffusionDelayS float64
	DiffusionChunks int64

	// Congestion totals, all zero unless Config.Congestion bounds the
	// uplink queues: chunks tail-dropped at full queues, re-requests issued
	// after a timeout, partner backoff activations and the chunks that did
	// get served. LossPct is drops over offered load (served + dropped),
	// the per-run loss rate the awareness ablation compares strategies on.
	Drops        int64
	Retransmits  int64
	Backoffs     int64
	ChunksServed int64
	LossPct      float64
}

// SummaryCell flattens one Table IV (property, app) cell group into the
// eight printed columns with their validity flags, in the paper's order:
// B'D, P'D, BD, PD, B'U, P'U, BU, PU.
type SummaryCell struct {
	Property string
	Vals     [8]float64
	Valid    [8]bool
}

// TableIVColumns names the eight Table IV columns in SummaryCell order.
var TableIVColumns = [8]string{"B'D%", "P'D%", "BD%", "PD%", "B'U%", "P'U%", "BU%", "PU%"}

// Summarize derives a Result's Summary: the fields RunCtx recorded as the
// run ended, plus the loss rate and what Tables II–IV reduce from the
// observations. RunCtx ends with it, so r.Summary already holds its value;
// calling it again repeats the reduction.
func Summarize(r *Result) Summary {
	s := r.Summary
	if offered := s.ChunksServed + s.Drops; offered > 0 {
		s.LossPct = 100 * float64(s.Drops) / float64(offered)
	}

	var rx, tx, all, crx, ctx stats.Accumulator
	for _, p := range r.PerProbe {
		rx.Add(p.RxKbps)
		tx.Add(p.TxKbps)
		all.Add(float64(p.AllPeers))
		crx.Add(float64(p.ContribRx))
		ctx.Add(float64(p.ContribTx))
	}
	s.RxKbpsMean, s.RxKbpsMax = rx.Mean(), rx.Max()
	s.TxKbpsMean, s.TxKbpsMax = tx.Mean(), tx.Max()
	s.AllPeersMean, s.AllPeersMax = all.Mean(), all.Max()
	s.ContribRxMean, s.ContribRxMax = crx.Mean(), crx.Max()
	s.ContribTxMean, s.ContribTxMax = ctx.Mean(), ctx.Max()

	s.SelfBiasContrib = core.ComputeSelfBias(r.Observations, r.Cfg.Contrib, true)
	s.SelfBiasAll = core.ComputeSelfBias(r.Observations, r.Cfg.Contrib, false)
	s.TableIV = flattenTableIV(r)
	return s
}

// flattenTableIV evaluates Table IV's five properties for one result and
// flattens each to the eight printed columns with their validity flags. It
// is the single source of the column-order and dash conventions.
//
// Following §III-C, the BW metric is evaluated on the download side only:
// access bandwidth of a remote peer can be inferred solely from packet
// trains it sends, so the paper "limitedly consider[s] the downlink
// direction for the BW metric" and prints dashes on the upload side. The
// emulated swarm would sometimes make the upload side measurable (partners
// exchange video both ways), but the methodology is reproduced as
// published.
func flattenTableIV(r *Result) []SummaryCell {
	cells := make([]SummaryCell, 0, 5)
	for _, c := range core.PaperClassifiers() {
		name := c.Name()
		// One Metrics per column pair, in TableIVColumns order: B'D/P'D,
		// BD/PD, B'U/P'U, BU/PU. BW's upload pairs stay zero (never Valid).
		var pairs [4]core.Metrics
		pairs[0] = core.Compute(r.Observations, core.Download, c, r.Cfg.Contrib, true)
		pairs[1] = core.Compute(r.Observations, core.Download, c, r.Cfg.Contrib, false)
		if name != "BW" {
			pairs[2] = core.Compute(r.Observations, core.Upload, c, r.Cfg.Contrib, true)
			pairs[3] = core.Compute(r.Observations, core.Upload, c, r.Cfg.Contrib, false)
		}
		sc := SummaryCell{Property: name}
		for i, m := range pairs {
			// Even columns print byte-wise bias, odd columns peer-wise. The
			// primed pairs (0 and 2) are structurally undefined for NET (the
			// only same-subnet peers are probes, so P\W contains no preferred
			// member by construction), and the paper prints dashes rather
			// than 0.0.
			valid := m.Valid() && !(name == "NET" && i%2 == 0)
			sc.Vals[2*i], sc.Vals[2*i+1] = m.BytePct, m.PeerPct
			sc.Valid[2*i], sc.Valid[2*i+1] = valid, valid
		}
		cells = append(cells, sc)
	}
	return cells
}
