package policy

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Scorer is the incremental, allocation-free face of the selection
// primitives. A caller owns one Scorer per recurring decision (a node's
// chunk scheduler, its partner churn loop), pushes the current candidate
// slate each round — either raw Infos to be weighed now, or weights it
// cached earlier — and draws with Sample/PickOne/Worst. All buffers are
// retained between rounds, so steady-state selection allocates nothing.
//
// The free functions Sample, PickOne and Worst are thin wrappers over a
// throwaway Scorer; a Scorer round consumes exactly the same RNG draws in
// exactly the same order, so replacing one with the other cannot perturb a
// seeded run.
//
// Weight caching contract: a Weight is pure, and of the facts in Info only
// EstRate (and in principle RTT) ever changes for an established pair —
// SameAS/SameCC/SameSubnet are immutable from the moment two peers meet.
// Callers may therefore compute a candidate's weight once at partnership
// formation, reuse it via PushScored every round, and recompute only when
// the mutable facts change.
type Scorer struct {
	cands   []Candidate
	weights []float64
	keys    []sampleKey
	out     []Candidate
}

type sampleKey struct {
	c   Candidate
	key float64
}

// compareSampleKeys orders sample keys strongest-first, caller index
// ascending on ties (keys are never NaN).
func compareSampleKeys(a, b sampleKey) int {
	if c := cmp.Compare(b.key, a.key); c != 0 {
		return c
	}
	return cmp.Compare(a.c.Index, b.c.Index)
}

// Reset clears the slate for a new round, keeping the buffers.
func (s *Scorer) Reset() {
	s.cands = s.cands[:0]
	s.weights = s.weights[:0]
}

// Push adds a candidate, weighing it with w now.
func (s *Scorer) Push(c Candidate, w Weight) {
	s.PushScored(c, w.Weight(c.Info))
}

// PushScored adds a candidate whose weight the caller already holds —
// typically a cached score computed at partnership formation and
// invalidated only when the pair's EstRate moved.
func (s *Scorer) PushScored(c Candidate, weight float64) {
	s.cands = append(s.cands, c)
	s.weights = append(s.weights, weight)
}

// PickOne draws one candidate with probability proportional to weight.
// Returns index -1 when nothing is selectable. Exactly one rng.Float64 is
// consumed when any weight is positive, none otherwise — the same contract
// as the free PickOne.
func (s *Scorer) PickOne(rng *rand.Rand) Candidate {
	total := 0.0
	for i, wt := range s.weights {
		if wt < 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			wt = 0
			s.weights[i] = 0
		}
		total += wt
	}
	if total <= 0 {
		return Candidate{Index: -1}
	}
	x := rng.Float64() * total
	for i, wt := range s.weights {
		x -= wt
		if x < 0 {
			return s.cands[i]
		}
	}
	return s.cands[len(s.cands)-1]
}

// Worst returns the lowest-weight candidate (ties broken by lower Index),
// or index -1 for an empty slate. No RNG is consumed.
func (s *Scorer) Worst() Candidate {
	if len(s.cands) == 0 {
		return Candidate{Index: -1}
	}
	best := 0
	bestW := math.Inf(1)
	for i, wt := range s.weights {
		if wt < bestW || (wt == bestW && s.cands[i].Index < s.cands[best].Index) {
			best, bestW = i, wt
		}
	}
	return s.cands[best]
}

// Sample draws up to k distinct candidates with probability proportional
// to weight (Efraimidis–Spirakis exponential keys), strongest keys first.
// The returned slice aliases the Scorer's scratch buffer: it is valid
// until the next Sample call. One rng.Float64 is consumed per
// positive-weight candidate, in push order, exactly like the free Sample.
func (s *Scorer) Sample(rng *rand.Rand, k int) []Candidate {
	if k <= 0 || len(s.cands) == 0 {
		return nil
	}
	s.keys = s.keys[:0]
	for i, c := range s.cands {
		wt := s.weights[i]
		if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			continue
		}
		u := rng.Float64()
		// key = u^(1/w): larger is better; equivalent to -ln(u)/w ascending.
		// A u of 0, one draw in 2⁵³, keys the candidate last.
		s.keys = append(s.keys, sampleKey{c: c, key: math.Pow(u, 1/wt)})
	}
	// slices.SortFunc (unlike sort.Slice) allocates nothing. The
	// comparator is a strict total order (keys are in (0,1), ties broken
	// by distinct caller indices), so the sorted sequence is unique —
	// identical no matter which sort produces it.
	slices.SortFunc(s.keys, compareSampleKeys)
	if k > len(s.keys) {
		k = len(s.keys)
	}
	s.out = s.out[:0]
	for i := 0; i < k; i++ {
		s.out = append(s.out, s.keys[i].c)
	}
	return s.out
}
