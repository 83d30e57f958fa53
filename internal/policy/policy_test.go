package policy

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"napawine/internal/units"
)

// TestUniform: the zero Bias leaves every factor out.
func TestUniform(t *testing.T) {
	u := Bias{}
	if u.Weight(Info{}) != 1 || u.Weight(Info{SameAS: true, SameCC: true, SameSubnet: true, RTT: time.Millisecond, EstRate: units.Gbps}) != 1 {
		t.Error("uniform weight must be 1 everywhere")
	}
}

func TestBandwidthBias(t *testing.T) {
	b := Bias{Ref: 384 * units.Kbps, Alpha: 1, Floor: 384 * units.Kbps}
	low := b.Weight(Info{EstRate: 384 * units.Kbps})
	high := b.Weight(Info{EstRate: 3840 * units.Kbps})
	if math.Abs(low-1) > 1e-12 {
		t.Errorf("weight at ref rate = %v, want 1", low)
	}
	if math.Abs(high-10) > 1e-12 {
		t.Errorf("weight at 10×ref = %v, want 10", high)
	}
	// A zero Ref is the stream rate, 384 kb/s.
	if d := (Bias{Alpha: 1, Floor: b.Floor}).Weight(Info{EstRate: 3840 * units.Kbps}); d != high {
		t.Errorf("weight at 10×ref with the default Ref = %v, want %v", d, high)
	}
	// Unmeasured candidates get the floor, not zero.
	if got := b.Weight(Info{}); math.Abs(got-1) > 1e-12 {
		t.Errorf("unmeasured weight = %v, want floor 1", got)
	}
	// Alpha sharpens the bias.
	sharp := Bias{Ref: 384 * units.Kbps, Alpha: 2, Floor: 384 * units.Kbps}
	if got := sharp.Weight(Info{EstRate: 3840 * units.Kbps}); math.Abs(got-100) > 1e-9 {
		t.Errorf("alpha=2 weight = %v, want 100", got)
	}
	// Cap clamps the rate.
	capped := Bias{Ref: 384 * units.Kbps, Alpha: 1, Cap: 768 * units.Kbps}
	if got := capped.Weight(Info{EstRate: 3840 * units.Kbps}); math.Abs(got-2) > 1e-12 {
		t.Errorf("capped weight = %v, want 2", got)
	}
	// Zero ref defaults instead of dividing by zero.
	noRef := Bias{Alpha: 1, Floor: 384 * units.Kbps}
	if got := noRef.Weight(Info{EstRate: 384 * units.Kbps}); got <= 0 {
		t.Errorf("zero-ref weight = %v", got)
	}
	// No floor, no measurement → unselectable.
	bare := Bias{Ref: 384 * units.Kbps, Alpha: 1}
	if got := bare.Weight(Info{}); got != 0 {
		t.Errorf("no-floor unmeasured weight = %v, want 0", got)
	}
}

func TestLocalityBiases(t *testing.T) {
	as := Bias{AS: 8}
	if as.Weight(Info{SameAS: true}) != 8 || as.Weight(Info{SameCC: true, SameSubnet: true}) != 1 {
		t.Error("AS factor wrong")
	}
	cc := Bias{CC: 3}
	if cc.Weight(Info{SameCC: true}) != 3 || cc.Weight(Info{SameAS: true}) != 1 {
		t.Error("CC factor wrong")
	}
	net := Bias{Subnet: 5}
	if net.Weight(Info{SameSubnet: true}) != 5 || net.Weight(Info{SameAS: true}) != 1 {
		t.Error("Subnet factor wrong")
	}
	rtt := Bias{Near: 50 * time.Millisecond, RTT: 4}
	if rtt.Weight(Info{RTT: 10 * time.Millisecond}) != 4 {
		t.Error("near candidate should get factor")
	}
	if rtt.Weight(Info{RTT: 100 * time.Millisecond}) != 1 {
		t.Error("far candidate should get 1")
	}
	if rtt.Weight(Info{}) != 1 {
		t.Error("unmeasured RTT should get 1")
	}
}

// TestProduct: the factors multiply, and a zero strength leaves its factor
// out rather than zeroing the weight.
func TestProduct(t *testing.T) {
	p := Bias{AS: 8, CC: 2, Subnet: 3, Near: 50 * time.Millisecond, RTT: 5}
	if got := p.Weight(Info{SameAS: true, SameCC: true, SameSubnet: true, RTT: time.Millisecond}); got != 240 {
		t.Errorf("product = %v, want 240", got)
	}
	if got := p.Weight(Info{}); got != 1 {
		t.Errorf("product = %v, want 1", got)
	}
	bw := Bias{Ref: units.Mbps, Alpha: 1, AS: 8}
	if got := bw.Weight(Info{SameAS: true, EstRate: 2 * units.Mbps}); got != 16 {
		t.Errorf("bandwidth × AS = %v, want 16", got)
	}
	// An unmeasured, floor-less candidate weighs 0 whatever its locality.
	if got := bw.Weight(Info{SameAS: true}); got != 0 {
		t.Errorf("zero factor product = %v, want 0", got)
	}
	// Zero strengths (Alpha, AS) are left out, so the same candidate weighs 1.
	if got := (Bias{Ref: units.Mbps}).Weight(Info{SameAS: true}); got != 1 {
		t.Errorf("zero-strength weight = %v, want 1", got)
	}
}

func mkCands(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{Index: i}
	}
	return out
}

func TestSampleBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cands := mkCands(10)
	got := Sample(rng, cands, 4, Bias{})
	if len(got) != 4 {
		t.Fatalf("sample size = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if seen[c.Index] {
			t.Fatal("sample has duplicates")
		}
		seen[c.Index] = true
	}
	// k larger than population returns everything.
	all := Sample(rng, cands, 100, Bias{})
	if len(all) != 10 {
		t.Errorf("oversized k returned %d", len(all))
	}
	if Sample(rng, nil, 3, Bias{}) != nil {
		t.Error("empty population should return nil")
	}
	if Sample(rng, cands, 0, Bias{}) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestSampleRespectsWeights(t *testing.T) {
	// Candidate 0 is same-AS with factor 10; it should be picked first far
	// more often than 1/n of the time.
	rng := rand.New(rand.NewSource(2))
	cands := mkCands(10)
	cands[0].Info.SameAS = true
	w := Bias{AS: 10}
	hits := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		got := Sample(rng, cands, 1, w)
		if len(got) == 1 && got[0].Index == 0 {
			hits++
		}
	}
	// Expected P ≈ 10/19 ≈ 0.53. Require > 0.4 to stay robust.
	if frac := float64(hits) / trials; frac < 0.4 {
		t.Errorf("weighted candidate picked %.3f of the time, want ≈0.53", frac)
	}
}

func TestSampleExcludesZeroWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cands := mkCands(5)
	// Only candidate 2 is measurably fast; the rest have zero weight under
	// a floor-less bandwidth bias.
	cands[2].Info.EstRate = units.Mbps
	w := Bias{Ref: units.Kbps, Alpha: 1}
	for i := 0; i < 100; i++ {
		got := Sample(rng, cands, 3, w)
		if len(got) != 1 || got[0].Index != 2 {
			t.Fatalf("zero-weight candidates selected: %v", got)
		}
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	// Every candidate must be reachable under uniform sampling.
	rng := rand.New(rand.NewSource(4))
	cands := mkCands(6)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		for _, c := range Sample(rng, cands, 2, Bias{}) {
			seen[c.Index] = true
		}
	}
	if len(seen) != 6 {
		t.Errorf("uniform sampling covered %d of 6 candidates", len(seen))
	}
}

func TestPickOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cands := mkCands(8)
	cands[3].Info.SameAS = true
	w := Bias{AS: 1000}
	hits := 0
	for i := 0; i < 1000; i++ {
		c := PickOne(rng, cands, w)
		if c.Index == 3 {
			hits++
		}
	}
	if hits < 950 {
		t.Errorf("heavily weighted candidate hit %d/1000", hits)
	}
	if got := PickOne(rng, nil, Bias{}); got.Index != -1 {
		t.Errorf("empty PickOne = %v, want index -1", got.Index)
	}
	// All-zero weights are unselectable.
	zero := Bias{Ref: units.Kbps, Alpha: 1}
	if got := PickOne(rng, mkCands(3), zero); got.Index != -1 {
		t.Errorf("all-zero PickOne = %v, want -1", got.Index)
	}
}

func TestPickOneDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cands := mkCands(2)
	cands[0].Info.EstRate = 3 * units.Mbps
	cands[1].Info.EstRate = 1 * units.Mbps
	w := Bias{Ref: 4 * units.Mbps, Alpha: 1} // weights below 1 count as they are
	c0 := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if PickOne(rng, cands, w).Index == 0 {
			c0++
		}
	}
	frac := float64(c0) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("3:1 weighting picked first %v of the time, want ≈0.75", frac)
	}
}

func TestWorst(t *testing.T) {
	cands := mkCands(4)
	cands[0].Info.EstRate = 4 * units.Mbps
	cands[1].Info.EstRate = 1 * units.Mbps
	cands[2].Info.EstRate = 9 * units.Mbps
	cands[3].Info.EstRate = 1 * units.Mbps
	w := Bias{Ref: units.Mbps, Alpha: 1}
	got := Worst(cands, w)
	if got.Index != 1 { // tie between 1 and 3 broken by lower index
		t.Errorf("Worst = %d, want 1", got.Index)
	}
	if Worst(nil, w).Index != -1 {
		t.Error("empty Worst should be -1")
	}
}

func TestSampleDeterminism(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(42))
		cands := mkCands(20)
		for i := range cands {
			cands[i].Info.EstRate = units.BitRate(i) * units.Mbps
		}
		var out []int
		for i := 0; i < 50; i++ {
			for _, c := range Sample(rng, cands, 3, Bias{Ref: units.Mbps, Alpha: 1, Floor: units.Kbps}) {
				out = append(out, c.Index)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic under fixed seed")
		}
	}
}

func BenchmarkSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cands := mkCands(200)
	for i := range cands {
		cands[i].Info.EstRate = units.BitRate(i%17) * units.Mbps
		cands[i].Info.SameAS = i%13 == 0
	}
	w := Bias{Ref: units.Mbps, Alpha: 1, Floor: units.Kbps, AS: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sample(rng, cands, 20, w)
	}
}

func BenchmarkPickOne(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cands := mkCands(40)
	for i := range cands {
		cands[i].Info.EstRate = units.BitRate(i%11+1) * units.Mbps
	}
	w := Bias{Ref: units.Mbps, Alpha: 1.5, Floor: units.Kbps}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PickOne(rng, cands, w)
	}
}

// BenchmarkOrder is one scheduler round of each registered strategy: a
// 90-chunk pull window with an urgent fifth, refilled each round so a sort
// never sees its own output.
func BenchmarkOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	window := make([]ChunkRef, 90)
	for i := range window {
		window[i] = ChunkRef{ID: int64(1000 + i), Holders: 1 + rng.Intn(12), Urgent: i < 18}
	}
	refs := make([]ChunkRef, len(window))
	for _, name := range StrategyNames() {
		strat, _ := StrategyByName(name)
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				copy(refs, window)
				strat.Order(rng, refs)
			}
		})
	}
}
