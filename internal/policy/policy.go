// Package policy defines the peer-selection machinery whose parameters are
// exactly the "network awareness" the paper measures: how strongly a client
// weighs bandwidth, AS locality, country, subnet or path length when it
// decides whom to talk to and whom to pull chunks from.
//
// A Weight maps what a real client can know about a candidate — measured
// throughput, locality facts derivable from the candidate's IP, measured
// RTT — to a non-negative selection weight. Application profiles
// (internal/apps) set one Bias strength per property; the analysis layer then
// has to rediscover those strengths from traffic alone, which is the whole
// experiment.
package policy

import (
	"math"
	"math/rand"
	"time"

	"napawine/internal/units"
)

// Info is everything a selection decision may legitimately depend on. It
// deliberately contains only client-observable facts; ground-truth link
// capacity, for instance, appears solely through the measured EstRate.
type Info struct {
	SameSubnet bool
	SameAS     bool
	SameCC     bool
	RTT        time.Duration
	// EstRate is the client's own estimate of the candidate's delivery
	// rate (EWMA of past chunk transfers); zero when never measured.
	EstRate units.BitRate
}

// Weight scores a candidate. Implementations must be pure: the same Info
// always yields the same weight, so selection randomness lives entirely in
// the sampler's RNG. Bias is the one implementation; tests substitute fakes.
type Weight interface {
	Weight(Info) float64
}

// Bias is a client's selection weight: the product of one factor per
// property the paper measures — bandwidth, AS, country, subnet and path
// length, in that order. A factor whose strength (Alpha, AS, CC, Subnet,
// RTT) is 0 is left out, so Bias{} is uniform random selection, the
// baseline against which awareness is defined.
type Bias struct {
	// Bandwidth: (rate/Ref)^Alpha, with unmeasured candidates charged
	// Floor so that newcomers still get probed, and rates clamped at Cap —
	// beyond a few dozen Mbit/s a partner cannot deliver chunks any faster
	// in practice, so an uncapped estimate would make LAN neighbours
	// pathologically dominant. This is the mechanism behind the strong BW
	// rows of Table IV. With Alpha set, a candidate with neither an
	// estimate nor a Floor weighs 0.
	Ref   units.BitRate // normalization, typically the stream rate (0 = 384 kbit/s)
	Alpha float64       // bias strength
	Floor units.BitRate // optimistic rate assumed for unmeasured peers
	Cap   units.BitRate // rate ceiling (0 = uncapped)

	// Locality: a candidate in the caller's AS, country or subnet weighs
	// AS, CC or Subnet times more. AS > 1 is the knob behind TVAnts- and
	// PPLive-style AS preference. No 2008-era client used CC or Subnet (the
	// paper finds CC preference entirely an AS echo); they exist for
	// ablation experiments.
	AS, CC, Subnet float64

	// Path length: a candidate measured closer than Near weighs RTT times
	// more — the "seek shorter paths" behaviour the paper's conclusion
	// recommends and finds absent.
	Near time.Duration
	RTT  float64
}

// Weight implements Weight.
func (b Bias) Weight(i Info) float64 {
	w := 1.0
	if b.Alpha != 0 {
		ref := b.Ref
		if ref <= 0 {
			ref = 384 * units.Kbps
		}
		r := i.EstRate
		if r <= 0 {
			r = b.Floor
		}
		if r <= 0 {
			return 0
		}
		if b.Cap > 0 && r > b.Cap {
			r = b.Cap
		}
		w = math.Pow(float64(r)/float64(ref), b.Alpha)
	}
	if b.AS != 0 && i.SameAS {
		w *= b.AS
	}
	if b.CC != 0 && i.SameCC {
		w *= b.CC
	}
	if b.Subnet != 0 && i.SameSubnet {
		w *= b.Subnet
	}
	if b.RTT != 0 && i.RTT > 0 && i.RTT < b.Near {
		w *= b.RTT
	}
	return w
}

// Candidate pairs an opaque caller index with the selectable facts.
type Candidate struct {
	Index int
	Info  Info
}

// Sample draws up to k distinct candidates with probability proportional to
// their weights, using the Efraimidis–Spirakis exponential-key method. Zero
// or negative-weight candidates are never selected. The result preserves
// selection order (strongest keys first). One-shot wrapper over Scorer;
// recurring callers should hold a Scorer and reuse its buffers.
func Sample(rng *rand.Rand, cands []Candidate, k int, w Weight) []Candidate {
	var s Scorer
	for _, c := range cands {
		s.Push(c, w)
	}
	picked := s.Sample(rng, k)
	if picked == nil {
		return nil
	}
	out := make([]Candidate, len(picked))
	copy(out, picked)
	return out
}

// PickOne draws a single candidate with probability proportional to weight,
// the hot path of per-chunk scheduling. Returns index -1 when nothing is
// selectable. One-shot wrapper over Scorer.
func PickOne(rng *rand.Rand, cands []Candidate, w Weight) Candidate {
	var s Scorer
	for _, c := range cands {
		s.Push(c, w)
	}
	return s.PickOne(rng)
}

// Worst returns the candidate with the lowest weight (ties broken by lower
// index), or index -1 for an empty slate. Used by partner-churn logic that
// periodically drops its least useful partner. One-shot wrapper over Scorer.
func Worst(cands []Candidate, w Weight) Candidate {
	var s Scorer
	for _, c := range cands {
		s.Push(c, w)
	}
	return s.Worst()
}
