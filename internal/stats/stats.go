// Package stats provides the small statistical toolkit the analysis layer
// needs: streaming accumulators, exact quantiles over retained samples and
// a deterministic rank order for tallies.
//
// Everything is deterministic and allocation-conscious; nothing here is a
// general statistics library, just the exact operations the paper's tables
// require, implemented carefully.
package stats

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"
)

// Accumulator tracks count, sum, max, mean and variance of a stream of
// values in O(1) space. The zero value is ready to use. Variance uses
// Welford's online recurrence, which stays numerically stable where the
// naive sum-of-squares formula cancels catastrophically.
type Accumulator struct {
	n        int64
	sum      float64
	max      float64
	mean, m2 float64
}

// Add folds v into the accumulator.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
	delta := v - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (v - a.mean)
}

// N reports the number of values seen.
func (a *Accumulator) N() int64 { return a.n }

// Mean reports the arithmetic mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Max reports the largest value seen, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 { return a.max }

// Variance reports the unbiased sample variance, or 0 when fewer than two
// values have been seen (a single trial carries no spread information).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr reports the standard error of the mean, StdDev/sqrt(n) — the ±
// half-width printed in every replicated sweep table.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Sample retains every value for exact quantile queries. For the trace
// volumes this project handles (≤ millions of per-peer aggregates) exact
// retention is cheaper than the complexity of a sketch.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends a value.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// N reports the number of retained values.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) using the nearest-rank method
// on the sorted sample. An empty sample yields 0.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.ensureSorted()
	idx := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.xs) {
		idx = len(s.xs) - 1
	}
	return s.xs[idx]
}

// Median reports the 0.5-quantile. The paper uses the hop-count median as
// the HOP partition threshold (§III-B).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Percent renders part/whole as a percentage, 0 when whole is 0. It exists
// because every table in the paper is expressed in percentages and the
// zero-denominator convention must be uniform.
func Percent(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// RankByCount returns a tally's keys by count descending, ties by key
// ascending: one order whatever order the map iterates in.
func RankByCount[K cmp.Ordered](tally map[K]int) []K {
	keys := slices.Collect(maps.Keys(tally))
	slices.SortFunc(keys, func(a, b K) int {
		if c := cmp.Compare(tally[b], tally[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return keys
}
