// Package core implements the paper's primary contribution: the
// preference-partition framework of §III that turns passive per-peer
// traffic aggregates into scale-free "network awareness" indices.
//
// For a network property X, the support is split into a preferred partition
// X_P and its complement. Over the contributor set of every probe p ∈ W,
// the framework computes (Eqs. 1–8):
//
//	P = 100 · Peer_P / (Peer_P + Peer_P̄)   — peer-wise preference
//	B = 100 · Byte_P / (Byte_P + Byte_P̄)   — byte-wise preference
//
// per direction (upload/download), and the primed variants P′/B′ over the
// contributor set with the probe set W itself removed, which cancels the
// testbed's self-induced bias (§III-C, Table III).
//
// The same peer observed from several probes is counted once per probe, as
// in the paper ("notice that a peer e may be counted more than once").
package core

import (
	"math"
	"time"

	"napawine/internal/stats"
)

// Observation is the per-(probe, remote-peer) aggregate the framework
// consumes — exactly what the paper's offline trace analysis produces
// before applying the partitions. All fields are derivable passively:
// byte counters from the trace, MinIPG from video packet trains, Hops from
// received TTLs, locality booleans from registry (whois/GeoIP) lookups.
//
// A run holds one per probe×peer pair, so the row is kept small and free of
// pointers: captures and the trace format are IPv4-only, and an address is
// its four bytes (netip.AddrFrom4 reads one back).
type Observation struct {
	Probe [4]byte // p ∈ W
	Peer  [4]byte // e

	// Video payload bytes exchanged with the peer: Up is B(p,e) (probe
	// uploads), Down is B(e,p) (probe downloads).
	VideoUp, VideoDown int64
	// All bytes regardless of traffic class, for the all-peers variant
	// of the self-bias table.
	TotalUp, TotalDown int64

	// MinIPG is the minimum inter-packet gap observed inside the peer's
	// video packet trains toward the probe; zero means unmeasurable (the
	// peer never sent a train).
	MinIPG time.Duration
	// Hops is the router-hop count inferred from received TTLs
	// (128−TTL); negative means unmeasurable (nothing received).
	Hops int32

	SameAS, SameCC, SameSubnet bool

	// PeerIsProbe marks e ∈ W (the self-bias filter key).
	PeerIsProbe bool
}

// ContribThresholds parameterizes the contributor heuristic of [14]: a peer
// is a contributor in a direction when the video bytes exchanged in that
// direction reach this floor.
type ContribThresholds struct {
	MinBytes int64
}

// DefaultContrib is conservative, as [14] describes its heuristic: a peer
// counts as contributor only after roughly two chunks' worth of video
// payload, so a single exploratory transfer does not qualify.
var DefaultContrib = ContribThresholds{MinBytes: 80_000}

// Direction selects the traffic side under analysis.
type Direction int

// Directions, named as the paper's subscripts.
const (
	Upload   Direction = iota // U: probe → peer
	Download                  // D: peer → probe
)

// String renders U or D.
func (d Direction) String() string {
	if d == Upload {
		return "U"
	}
	return "D"
}

// Classifier is one network property X with its preferred partition X_P.
// Classify reports whether the observation falls in X_P, and whether the
// property is measurable for this observation at all (e.g. BW needs a
// received packet train; HOP needs a received TTL).
type Classifier interface {
	Name() string
	Classify(Observation) (preferred, measurable bool)
}

// BWClassifier implements the §III-B bandwidth partition: a peer is
// high-bandwidth when the minimum inter-packet gap of its video trains is
// below Threshold (1 ms ⇔ 10 Mbit/s with 1250-byte packets).
type BWClassifier struct {
	Threshold time.Duration
}

// NewBWClassifier returns the paper's 1 ms classifier.
func NewBWClassifier() BWClassifier { return BWClassifier{Threshold: time.Millisecond} }

// Name implements Classifier.
func (BWClassifier) Name() string { return "BW" }

// Classify implements Classifier.
func (c BWClassifier) Classify(o Observation) (bool, bool) {
	if o.MinIPG <= 0 {
		return false, false
	}
	return o.MinIPG < c.Threshold, true
}

// ASClassifier prefers peers in the probe's own autonomous system.
type ASClassifier struct{}

// Name implements Classifier.
func (ASClassifier) Name() string { return "AS" }

// Classify implements Classifier.
func (ASClassifier) Classify(o Observation) (bool, bool) { return o.SameAS, true }

// CCClassifier prefers peers in the probe's own country.
type CCClassifier struct{}

// Name implements Classifier.
func (CCClassifier) Name() string { return "CC" }

// Classify implements Classifier.
func (CCClassifier) Classify(o Observation) (bool, bool) { return o.SameCC, true }

// NETClassifier prefers peers in the probe's own subnet (hop count zero).
type NETClassifier struct{}

// Name implements Classifier.
func (NETClassifier) Name() string { return "NET" }

// Classify implements Classifier.
func (NETClassifier) Classify(o Observation) (bool, bool) { return o.SameSubnet, true }

// HOPClassifier prefers peers whose inferred path is shorter than
// Threshold hops. The paper fixes the threshold at 19, the observed median
// (18–20 across applications).
type HOPClassifier struct {
	Threshold int
}

// NewHOPClassifier returns the paper's fixed 19-hop classifier.
func NewHOPClassifier() HOPClassifier { return HOPClassifier{Threshold: 19} }

// Name implements Classifier.
func (HOPClassifier) Name() string { return "HOP" }

// Classify implements Classifier.
func (c HOPClassifier) Classify(o Observation) (bool, bool) {
	if o.Hops < 0 {
		return false, false
	}
	return int(o.Hops) < c.Threshold, true
}

// PaperClassifiers returns the five property classifiers in the order of
// Table IV's rows.
func PaperClassifiers() []Classifier {
	return []Classifier{
		NewBWClassifier(),
		ASClassifier{},
		CCClassifier{},
		NETClassifier{},
		NewHOPClassifier(),
	}
}

// Contributor reports whether the observation qualifies as a contributor
// in the given direction under the thresholds.
func Contributor(o Observation, dir Direction, th ContribThresholds) bool {
	if dir == Upload {
		return o.VideoUp >= th.MinBytes
	}
	return o.VideoDown >= th.MinBytes
}

// Metrics carries P and B of Eqs. (7)–(8) plus the raw tallies of
// Eqs. (1)–(6) for auditability.
type Metrics struct {
	Property  string
	Direction Direction
	// ExcludeProbes marks the primed variant (P′/B′): the contributor
	// set was filtered to P\W.
	ExcludeProbes bool

	PeersPreferred int
	PeersOther     int
	BytesPreferred int64
	BytesOther     int64
	// Unmeasurable counts contributors the classifier could not place
	// (omitted from both partitions, as the paper omits BW uploads).
	Unmeasurable int

	PeerPct float64 // P (Eq. 7)
	BytePct float64 // B (Eq. 8)
}

// Valid reports whether any contributor was measurable: when false, the
// table cell should print "-" like the paper's BW upload cells.
func (m Metrics) Valid() bool { return m.PeersPreferred+m.PeersOther > 0 }

// Compute evaluates one classifier over the observations in one direction.
// Only contributors (per th) in that direction enter the tallies;
// excludeProbes additionally removes e ∈ W, yielding the primed metrics.
func Compute(obs []Observation, dir Direction, c Classifier,
	th ContribThresholds, excludeProbes bool) Metrics {

	m := Metrics{Property: c.Name(), Direction: dir, ExcludeProbes: excludeProbes}
	for _, o := range obs {
		if !Contributor(o, dir, th) {
			continue
		}
		if excludeProbes && o.PeerIsProbe {
			continue
		}
		bytes := o.VideoDown
		if dir == Upload {
			bytes = o.VideoUp
		}
		pref, ok := c.Classify(o)
		if !ok {
			m.Unmeasurable++
			continue
		}
		if pref {
			m.PeersPreferred++
			m.BytesPreferred += bytes
		} else {
			m.PeersOther++
			m.BytesOther += bytes
		}
	}
	m.PeerPct = stats.Percent(float64(m.PeersPreferred), float64(m.PeersPreferred+m.PeersOther))
	m.BytePct = stats.Percent(float64(m.BytesPreferred), float64(m.BytesPreferred+m.BytesOther))
	return m
}

// SelfBias is one row of Table III: the share of peers and bytes that the
// probe set exchanged among itself.
type SelfBias struct {
	// Contributor restricts the population to contributors (either
	// direction) and video bytes; otherwise all peers and all bytes.
	Contributor bool
	PeerPct     float64
	BytePct     float64
	Peers       int // total population counted
	Bytes       int64
}

// ComputeSelfBias evaluates the §III-C self-induced bias for one
// application's observation set.
func ComputeSelfBias(obs []Observation, th ContribThresholds, contributorsOnly bool) SelfBias {
	var probePeers, totalPeers int
	var probeBytes, totalBytes int64
	for _, o := range obs {
		var bytes int64
		if contributorsOnly {
			if !Contributor(o, Upload, th) && !Contributor(o, Download, th) {
				continue
			}
			bytes = o.VideoUp + o.VideoDown
		} else {
			bytes = o.TotalUp + o.TotalDown
		}
		totalPeers++
		totalBytes += bytes
		if o.PeerIsProbe {
			probePeers++
			probeBytes += bytes
		}
	}
	return SelfBias{
		Contributor: contributorsOnly,
		PeerPct:     stats.Percent(float64(probePeers), float64(totalPeers)),
		BytePct:     stats.Percent(float64(probeBytes), float64(totalBytes)),
		Peers:       totalPeers,
		Bytes:       totalBytes,
	}
}

// HopMedian reports the median inferred hop count across measurable
// observations — the statistic the paper uses to justify its fixed
// 19-hop threshold. It is the nearest-rank median, the ⌈n/2⌉-th smallest
// hop count (stats.Sample.Median's), found by bisecting on the value
// between the smallest and largest count: a pass per halving, each
// allocating nothing, where a sorted copy would hold every hop count again.
func HopMedian(obs []Observation) (float64, bool) {
	n, lo, hi := 0, int32(math.MaxInt32), int32(-1)
	for i := range obs {
		if h := obs[i].Hops; h >= 0 {
			n, lo, hi = n+1, min(lo, h), max(hi, h)
		}
	}
	if n == 0 {
		return 0, false
	}
	// The answer is the least v in [lo, hi] with at least k counts ≤ v.
	k := (n + 1) / 2
	for lo < hi {
		mid := lo + (hi-lo)/2
		atMost := 0
		for i := range obs {
			if h := obs[i].Hops; h >= 0 && h <= mid {
				atMost++
			}
		}
		if atMost >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo), true
}
