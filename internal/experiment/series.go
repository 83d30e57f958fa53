package experiment

import (
	"fmt"
	"slices"
	"time"

	"napawine/internal/overlay"
	"napawine/internal/report"
	"napawine/internal/sim"
	"napawine/internal/stats"
	"napawine/internal/topology"
)

// SeriesSample is one time-series bucket of a scenario run: the swarm's
// state at the bucket boundary plus the traffic the bucket accumulated.
// The per-bucket intra-AS share is the dynamic counterpart of Table IV's AS
// row — it shows locality bias responding to the scenario's events instead
// of averaged over the whole run.
type SeriesSample struct {
	// T is the bucket's end instant as an offset from the run start.
	T time.Duration
	// Online counts online non-source peers at T.
	Online int
	// Continuity is the mean playout continuity across those peers.
	Continuity float64
	// IntraASPct is the share of the bucket's video bytes that stayed
	// inside one AS; IntraASValid is false when the bucket moved no video.
	IntraASPct   float64
	IntraASValid bool
	// VideoKbps is the swarm-wide video throughput over the bucket.
	VideoKbps float64
	// TrackerUp reports whether the tracker was reachable at T.
	TrackerUp bool
	// PerAS breaks the bucket down by autonomous system for the run's
	// tracked ASes (the top DefaultASSeriesK by initial population),
	// ASN-ascending.
	PerAS []ASSample
}

// ASSample is one AS's slice of a series bucket: how many of its peers are
// online, how well they play, and how much of the video they received in
// the bucket came from inside the AS — the per-AS view of Table IV's
// locality row, resolved over time.
type ASSample struct {
	AS topology.ASN
	// Online counts the AS's online non-source peers at the bucket end.
	Online int
	// Continuity is the mean playout continuity across those peers; zero
	// when none are online.
	Continuity float64
	// IntraPct is the share of video bytes received by this AS's peers
	// during the bucket that originated inside the same AS; IntraValid is
	// false when the AS received no video this bucket.
	IntraPct   float64
	IntraValid bool
}

// DefaultASSeriesK is how many ASes a scenario run tracks: the K
// most-populated ones. Small on purpose: per-AS series cost
// O(buckets·K) memory and the paper's topologies concentrate most peers in
// a handful of ASes.
const DefaultASSeriesK = 6

// seriesRecorder samples the swarm at fixed bucket boundaries on the
// engine's own clock, so the series is part of the deterministic event
// sequence: same seed and spec, same bytes, regardless of how many
// experiments run in parallel around this one. Memory is bounded by the
// bucket count, never the run length.
type seriesRecorder struct {
	samples    []SeriesSample
	prevIntra  int64
	prevTotal  int64
	bucketSecs float64
	// onSample, when non-nil, streams each bucket to the caller as it is
	// recorded (the Config.OnSample hook).
	onSample func(SeriesSample)

	// Per-AS tracking, bounded to the top-K ASes by population at recorder
	// creation. asTracked is ASN-ascending; asSlot maps an ASN to its index
	// in the parallel slices.
	asTracked   []topology.ASN
	asSlot      map[topology.ASN]int
	prevASRx    []int64
	prevASIntra []int64
}

// recordSeries installs a periodic sampler for `buckets` buckets across the
// horizon and returns the recorder whose samples fill in as the run
// progresses.
func recordSeries(eng *sim.Engine, net *overlay.Network, buckets int, horizon time.Duration, onSample func(SeriesSample)) *seriesRecorder {
	every := horizon / time.Duration(buckets)
	if every <= 0 {
		every = horizon
		buckets = 1
	}
	r := &seriesRecorder{
		samples:    make([]SeriesSample, 0, buckets),
		bucketSecs: every.Seconds(),
		onSample:   onSample,
	}
	r.trackTopASes(net, DefaultASSeriesK)
	eng.Every(every, every, func() {
		if len(r.samples) >= buckets {
			return
		}
		r.sample(eng, net)
	})
	return r
}

// trackTopASes fixes the recorder's tracked-AS set: the k most-populated
// ASes among the swarm's current non-source peers (count descending, ASN
// ascending on ties), stored ASN-ascending. The set is chosen once so each
// AS's series stays continuous; peers that later join untracked ASes are
// still counted in the swarm-wide columns, just not broken out.
func (r *seriesRecorder) trackTopASes(net *overlay.Network, k int) {
	counts := make(map[topology.ASN]int)
	for _, nd := range net.Nodes() {
		if nd.IsSource() {
			continue
		}
		counts[nd.Host.AS]++
	}
	ases := stats.RankByCount(counts)
	if len(ases) > k {
		ases = ases[:k]
	}
	slices.Sort(ases)
	r.asTracked = ases
	r.asSlot = make(map[topology.ASN]int, len(ases))
	for i, as := range ases {
		r.asSlot[as] = i
	}
	r.prevASRx = make([]int64, len(ases))
	r.prevASIntra = make([]int64, len(ases))
}

func (r *seriesRecorder) sample(eng *sim.Engine, net *overlay.Network) {
	online := 0
	var cont stats.Accumulator
	asOnline := make([]int, len(r.asTracked))
	asCont := make([]stats.Accumulator, len(r.asTracked))
	for _, nd := range net.Nodes() {
		if nd.IsSource() || !nd.Online() {
			continue
		}
		online++
		cont.Add(nd.Continuity())
		if slot, ok := r.asSlot[nd.Host.AS]; ok {
			asOnline[slot]++
			asCont[slot].Add(nd.Continuity())
		}
	}
	// A bucket boundary is a window barrier (the sampler runs on the
	// global engine), so the per-shard ledgers are quiescent and the view
	// — live ledger on one shard, merged snapshot otherwise — is exact.
	led := net.LedgerView()
	intra := led.VideoIntraAS - r.prevIntra
	total := led.VideoTotal - r.prevTotal
	r.prevIntra = led.VideoIntraAS
	r.prevTotal = led.VideoTotal
	s := SeriesSample{
		T:          time.Duration(eng.Now()),
		Online:     online,
		Continuity: cont.Mean(),
		VideoKbps:  float64(total) * 8 / 1000 / r.bucketSecs,
		TrackerUp:  !net.TrackerPaused(),
	}
	if total > 0 {
		s.IntraASPct = 100 * float64(intra) / float64(total)
		s.IntraASValid = true
	}
	if len(r.asTracked) > 0 {
		s.PerAS = make([]ASSample, len(r.asTracked))
		for i, as := range r.asTracked {
			rx := led.VideoRxByAS[as] - r.prevASRx[i]
			asIntra := led.VideoIntraByAS[as] - r.prevASIntra[i]
			r.prevASRx[i] = led.VideoRxByAS[as]
			r.prevASIntra[i] = led.VideoIntraByAS[as]
			a := ASSample{AS: as, Online: asOnline[i], Continuity: asCont[i].Mean()}
			if rx > 0 {
				a.IntraPct = 100 * float64(asIntra) / float64(rx)
				a.IntraValid = true
			}
			s.PerAS[i] = a
		}
	}
	r.samples = append(r.samples, s)
	if r.onSample != nil {
		r.onSample(s)
	}
}

// SeriesTable renders the per-bucket time series of one or more runs that
// share a scenario and duration, one row per run at each bucket. Returns nil
// when no run carried a series (no scenario).
func SeriesTable(results []*Result) *report.Table {
	name := ""
	buckets := 0
	for _, r := range results {
		if r.Scenario != "" {
			name = r.Scenario
		}
		buckets = max(buckets, len(r.Series))
	}
	return runRows(results).SeriesTable(fmt.Sprintf("Time series — scenario %q", name), buckets)
}
