package overlay

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// sliceNeighbors is the neighbour list as it was before the ring: a plain
// slice, scanned for every membership question and shifted down by one on
// every eviction. Kept as the reference model the ring must agree with.
type sliceNeighbors []PeerID

func (s *sliceNeighbors) remember(id PeerID, max int) bool {
	if max <= 0 {
		return false
	}
	for _, n := range *s {
		if n == id {
			return false
		}
	}
	if len(*s) >= max {
		copy(*s, (*s)[1:])
		(*s)[len(*s)-1] = id
		return true
	}
	*s = append(*s, id)
	return true
}

// ringCoverage counts what a checked sequence exercised, so a test can insist
// that its inputs reached the mechanism it is there for.
type ringCoverage struct {
	filtered  int // remembers answered by a clear filter bit alone
	aliasHits int // remembers of an absent id whose filter bit was set: only the scan can tell
	wraps     int // times the oldest slot came round to the start of the storage
	rebuilds  int // filter rebuilds forced by stale bits
	resets    int
}

// checkRingMatchesSlice drives ring and the reference model through the same
// seeded sequence of remembers, with reset() standing for whatever empties the
// list under test (it starts with one), and after every step requires the same
// verdict, the same length and the same id at every logical index, plus the
// filter's own invariants: no listed id without its bit (a false "certainly
// absent" would list an id twice), stale bits within their bound, and no more
// set bits than listed ids and stale bits can account for. Ids are drawn from
// span residues and three multiples of the filter size above each, so distinct
// ids share filter bits all the time.
func checkRingMatchesSlice(t testing.TB, ring *neighborRing, reset func(), seed int64, limit, span, steps, resetEvery int) ringCoverage {
	t.Helper()
	var cov ringCoverage
	var ref sliceNeighbors
	rng := rand.New(rand.NewSource(seed))
	reset()
	bitSet := func(id PeerID) bool {
		word, mask := neighborFilterBit(id)
		return ring.filter[word]&mask != 0
	}
	for step := 0; step < steps; step++ {
		if resetEvery > 0 && rng.Intn(resetEvery) == 0 {
			reset()
			ref = ref[:0]
			cov.resets++
		}
		id := PeerID(rng.Intn(span) + neighborFilterBits*rng.Intn(3))
		listed := slices.Contains(ref, id)
		if ring.filter != nil && limit > 0 && !listed {
			if bitSet(id) {
				cov.aliasHits++
			} else {
				cov.filtered++
			}
		}
		head, stale := ring.head, ring.stale
		got, want := ring.remember(id, limit), ref.remember(id, limit)
		if got != want {
			t.Fatalf("step %d: remember(%d) = %v, the slice says %v", step, id, got, want)
		}
		if head != 0 && ring.head == 0 {
			cov.wraps++
		}
		if ring.stale < stale {
			cov.rebuilds++
		}
		if ring.len() != len(ref) {
			t.Fatalf("step %d: ring holds %d ids, the slice %d", step, ring.len(), len(ref))
		}
		for i, want := range ref {
			if got := ring.at(i); got != want {
				t.Fatalf("step %d: ring.at(%d) = %d, the slice holds %d there", step, i, got, want)
			}
		}
		if ring.filter == nil {
			if ring.len() >= neighborFilterMin {
				t.Fatalf("step %d: %d ids listed and no filter", step, ring.len())
			}
			continue
		}
		for _, id := range ref {
			if !bitSet(id) {
				t.Fatalf("step %d: listed id %d has no filter bit", step, id)
			}
		}
		if int(ring.stale)*4 >= limit {
			t.Fatalf("step %d: %d stale bits outstanding at a bound of %d", step, ring.stale, limit)
		}
		set := 0
		for _, w := range ring.filter {
			set += bits.OnesCount64(w)
		}
		if set > ring.len()+int(ring.stale) {
			t.Fatalf("step %d: %d filter bits set for %d listed ids and %d evictions", step, set, ring.len(), ring.stale)
		}
	}
	return cov
}

// TestNeighborRingMatchesSliceReference checks a node's neighbour list
// against the slice it replaced, through the node: Join is what empties the
// list between sessions. The node is alone in its world, so nothing but the
// test writes its list.
func TestNeighborRingMatchesSliceReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		limit  int
		filter bool // long enough to own a filter
	}{
		{"no list", 0, false},
		{"one entry", 1, false},
		{"below the filter", neighborFilterMin - 1, false},
		{"SopCast", 200, true},
		{"PPLive", 600, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorld(t, 1, 1, 0)
			nd := w.peers[0]
			prof := *nd.Profile
			prof.NeighborListMax = tc.limit
			nd.Profile = &prof
			nd.Join()
			rejoin := func() {
				nd.Leave()
				nd.Join()
			}
			// Three ids per listed slot, so most remembers of a full list
			// evict; a reset now and then, and one long stretch without.
			cov := checkRingMatchesSlice(t, &nd.neighbors, rejoin, 11, tc.limit, tc.limit+1, 12*tc.limit+50, 2*tc.limit+10)
			more := checkRingMatchesSlice(t, &nd.neighbors, rejoin, 12, tc.limit, tc.limit+1, 8*tc.limit+50, 0)
			t.Logf("%+v, then without resets %+v", cov, more)
			if cov.resets == 0 {
				t.Error("the sequence never rejoined")
			}
			if tc.limit > 1 && more.wraps == 0 {
				t.Error("the ring never wrapped around")
			}
			if got := more.filtered > 0 && more.aliasHits > 0 && more.rebuilds > 0; got != tc.filter {
				t.Errorf("filter answered alone %d times, was overruled by the scan %d times, rebuilt %d times; want all three: %v",
					more.filtered, more.aliasHits, more.rebuilds, tc.filter)
			}
			if (nd.neighbors.filter != nil) != tc.filter {
				t.Errorf("filter allocated: %v, want %v", nd.neighbors.filter != nil, tc.filter)
			}

			// rememberNeighbor is the same list under the profile's bound.
			rejoin()
			for id := PeerID(100); id < 110; id++ {
				nd.rememberNeighbor(id)
				nd.rememberNeighbor(id)
			}
			if want := min(10, tc.limit); nd.neighbors.len() != want {
				t.Errorf("ten distinct ids remembered twice each: list holds %d, want %d", nd.neighbors.len(), want)
			}
		})
	}
}

// TestNeighborRingStorageStopsAtTheBound fills a list to PPLive's bound of
// 600 and keeps remembering: the storage must end at exactly the bound.
// Growing by append would leave the list in an 864-entry array, 768 bytes
// that no entry ever uses.
func TestNeighborRingStorageStopsAtTheBound(t *testing.T) {
	const limit = 600
	var ring neighborRing
	for id := PeerID(0); id < 2*limit; id++ {
		ring.remember(id, limit)
		if cap(ring.ids) > limit {
			t.Fatalf("after %d ids the storage holds %d entries, past the bound of %d", id+1, cap(ring.ids), limit)
		}
	}
	if ring.len() != limit || cap(ring.ids) != limit {
		t.Errorf("full list: %d entries in storage for %d, want %d in %d", ring.len(), cap(ring.ids), limit, limit)
	}
}

// FuzzNeighborRing lets the fuzzer choose the workload seed, the bound, how
// many residues the ids are drawn from and how often the list is reset.
func FuzzNeighborRing(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(10), uint16(0))
	f.Add(int64(2), uint16(1), uint16(3), uint16(7))
	f.Add(int64(3), uint16(80), uint16(300), uint16(400))
	f.Add(int64(4), uint16(200), uint16(201), uint16(0))
	f.Add(int64(5), uint16(600), uint16(700), uint16(1500))
	f.Add(int64(6), uint16(600), uint16(neighborFilterBits), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, limit, span, resetEvery uint16) {
		limit %= 1024
		var ring neighborRing
		checkRingMatchesSlice(t, &ring, ring.reset, seed, int(limit), int(span)+1, 6*int(limit)+100, int(resetEvery))
	})
}
