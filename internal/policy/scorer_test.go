package policy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"napawine/internal/units"
)

func scorerSlate() []Candidate {
	return []Candidate{
		{Index: 0, Info: Info{EstRate: 4 * units.Mbps}},
		{Index: 1, Info: Info{SameAS: true, EstRate: 1 * units.Mbps}},
		{Index: 2, Info: Info{}},
		{Index: 3, Info: Info{SameCC: true, EstRate: 600 * units.Kbps}},
		{Index: 4, Info: Info{SameSubnet: true, EstRate: 20 * units.Mbps}},
	}
}

func scorerWeight() Weight {
	return Bias{Ref: 384 * units.Kbps, Alpha: 2, Floor: 384 * units.Kbps, AS: 4}
}

// TestScorerMatchesFreeFunctions is the byte-reproducibility contract of
// the refactor: a Scorer round must make exactly the choices — and consume
// exactly the RNG draws — of the one-shot helpers it replaced on the hot
// path.
func TestScorerMatchesFreeFunctions(t *testing.T) {
	cands, w := scorerSlate(), scorerWeight()
	for seed := int64(1); seed <= 50; seed++ {
		// bare holds the same weights pushed without their Infos: PickOne and
		// Worst read only the index and the weight, which is what lets the
		// overlay's request and churn rounds push bare weights.
		var s, bare Scorer
		for _, c := range cands {
			s.Push(c, w)
			bare.PushScored(Candidate{Index: c.Index}, w.Weight(c.Info))
		}
		rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		rngC := rand.New(rand.NewSource(seed))
		pick, ref := s.PickOne(rngA), PickOne(rngB, cands, w)
		if pick.Index != ref.Index {
			t.Fatalf("seed %d: Scorer.PickOne = %d, free PickOne = %d", seed, pick.Index, ref.Index)
		}
		if b := bare.PickOne(rngC); b.Index != pick.Index {
			t.Fatalf("seed %d: PickOne without Infos = %d, with them %d", seed, b.Index, pick.Index)
		}
		if a, b, c := rngA.Int63(), rngB.Int63(), rngC.Int63(); a != b || a != c {
			t.Fatalf("seed %d: PickOne consumed different draw counts", seed)
		}

		if got, want := s.Worst(), Worst(cands, w); got.Index != want.Index || bare.Worst().Index != got.Index {
			t.Fatalf("seed %d: Scorer.Worst = %d, free Worst = %d, without Infos %d", seed, got.Index, want.Index, bare.Worst().Index)
		}

		rngA, rngB = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := s.Sample(rngA, 3)
		want := Sample(rngB, cands, 3, w)
		gi := make([]int, len(got))
		for i, c := range got {
			gi[i] = c.Index
		}
		wi := make([]int, len(want))
		for i, c := range want {
			wi[i] = c.Index
		}
		if !reflect.DeepEqual(gi, wi) {
			t.Fatalf("seed %d: Scorer.Sample = %v, free Sample = %v", seed, gi, wi)
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("seed %d: Sample consumed different draw counts", seed)
		}
	}
}

// TestScorerReuseDoesNotAllocate pins the whole point of the type: a
// steady-state selection round on retained buffers is allocation-free.
func TestScorerReuseDoesNotAllocate(t *testing.T) {
	cands, w := scorerSlate(), scorerWeight()
	var s Scorer
	rng := rand.New(rand.NewSource(1))
	round := func() {
		s.Reset()
		for _, c := range cands {
			s.PushScored(c, w.Weight(c.Info))
		}
		s.PickOne(rng)
		s.Worst()
		s.Sample(rng, 3)
	}
	round() // warm the buffers
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("steady-state Scorer round allocates %.1f times", allocs)
	}
}

func TestScorerEmptyAndNonPositive(t *testing.T) {
	var s Scorer
	rng := rand.New(rand.NewSource(1))
	if got := s.PickOne(rng); got.Index != -1 {
		t.Errorf("empty PickOne = %d, want -1", got.Index)
	}
	if got := s.Worst(); got.Index != -1 {
		t.Errorf("empty Worst = %d, want -1", got.Index)
	}
	if got := s.Sample(rng, 2); got != nil {
		t.Errorf("empty Sample = %v, want nil", got)
	}
	s.PushScored(Candidate{Index: 7}, 0)
	s.PushScored(Candidate{Index: 8}, math.NaN())
	s.PushScored(Candidate{Index: 9}, math.Inf(1))
	before := rand.New(rand.NewSource(3)).Int63()
	rng = rand.New(rand.NewSource(3))
	if got := s.PickOne(rng); got.Index != -1 {
		t.Errorf("all-unselectable PickOne = %d, want -1", got.Index)
	}
	if rng.Int63() != before {
		t.Error("unselectable PickOne consumed a draw")
	}
	if got := s.Sample(rand.New(rand.NewSource(3)), 2); len(got) != 0 {
		t.Errorf("all-unselectable Sample = %v, want empty", got)
	}
}
