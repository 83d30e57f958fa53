package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Max() != 0 {
		t.Error("zero accumulator should report zeros")
	}
	for _, v := range []float64{3, -1, 4, 1.5} {
		a.Add(v)
	}
	if a.N() != 4 {
		t.Errorf("N = %d", a.N())
	}
	if a.Max() != 4 {
		t.Errorf("max = %v", a.Max())
	}
	if got := a.Mean(); math.Abs(got-1.875) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
}

func TestAccumulatorVariance(t *testing.T) {
	var a Accumulator
	if a.Variance() != 0 || a.StdDev() != 0 || a.StdErr() != 0 {
		t.Error("empty accumulator should report zero spread")
	}
	a.Add(10)
	if a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("single value carries no spread information")
	}
	a.Add(14)
	// Sample variance of {10, 14} is 8; stderr = sqrt(8)/sqrt(2) = 2.
	if got := a.Variance(); math.Abs(got-8) > 1e-12 {
		t.Errorf("variance = %v, want 8", got)
	}
	if got := a.StdErr(); math.Abs(got-2) > 1e-12 {
		t.Errorf("stderr = %v, want 2", got)
	}

	// Welford must survive a large offset that would wreck naive
	// sum-of-squares: same spread, shifted by 1e9.
	var b Accumulator
	for _, v := range []float64{1e9 + 10, 1e9 + 14} {
		b.Add(v)
	}
	if got := b.Variance(); math.Abs(got-8) > 1e-3 {
		t.Errorf("offset variance = %v, want 8", got)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if s.Median() != 0 {
		t.Error("empty sample should report zeros")
	}
	for _, v := range []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} {
		s.Add(v)
	}
	if got := s.Median(); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
	if got := s.Quantile(-0.5); got != 1 {
		t.Errorf("clamped q = %v, want 1", got)
	}
	if got := s.Quantile(1.5); got != 9 {
		t.Errorf("clamped q = %v, want 9", got)
	}
	if s.N() != 9 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSampleMedianEven(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	// Nearest-rank: ceil(0.5*4) = 2nd smallest.
	if got := s.Median(); got != 2 {
		t.Errorf("median = %v, want 2 (nearest rank)", got)
	}
}

// Property: quantile is monotone in q and brackets min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var s Sample
		n := 1 + rng.Intn(200)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 100
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			s.Add(v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
			}
			if v < lo || v > hi {
				t.Fatalf("quantile %v outside [min,max]", v)
			}
			prev = v
		}
	}
}

func TestSampleInterleavedAddQuery(t *testing.T) {
	var s Sample
	s.Add(5)
	if s.Median() != 5 {
		t.Error("median after one add")
	}
	s.Add(1) // add after a sorted query must re-sort
	s.Add(9)
	if got := s.Median(); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(25, 100); got != 25 {
		t.Errorf("Percent = %v", got)
	}
	if got := Percent(1, 0); got != 0 {
		t.Errorf("zero-denominator Percent = %v, want 0", got)
	}
	if got := Percent(3, 4); got != 75 {
		t.Errorf("Percent = %v, want 75", got)
	}
}

// TestRankByCount: counts descending, ties by key ascending, every key
// once — so a tally ranks the same whatever order its map iterates in.
func TestRankByCount(t *testing.T) {
	tally := map[string]int{"PL": 10, "KR": 10, "CN": 150, "ES": 4, "AT": 10}
	want := []string{"CN", "AT", "KR", "PL", "ES"}
	for range 20 {
		if got := RankByCount(tally); !slices.Equal(got, want) {
			t.Fatalf("RankByCount = %v, want %v", got, want)
		}
	}
	if got := RankByCount(map[int]int{}); len(got) != 0 {
		t.Errorf("empty tally ranks %v", got)
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i))
	}
}

func BenchmarkSampleMedian(b *testing.B) {
	var s Sample
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
		_ = s.Median()
	}
}
