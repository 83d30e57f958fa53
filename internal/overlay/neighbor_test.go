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

// idBits is how wide a peer id can be: the ring's widest entry.
var idBits = bits.Len(maxPeerID)

// ringCoverage counts what a checked sequence exercised, so a test can insist
// that its inputs reached the mechanism it is there for.
type ringCoverage struct {
	filtered  int // remembers answered by a clear filter bit alone
	aliasHits int // remembers of an absent id whose filter bit was set: only the scan can tell
	wraps     int // times the oldest slot came round to the start of the storage
	rebuilds  int // filter rebuilds forced by stale bits
	resets    int
	// Repacks for a wider id, by the state of the list it arrived in.
	widenMidList    int // some entries listed, room for more
	widenAfterWrap  int // full, and the oldest slot has come round since the last reset
	widenAfterReset int // the first widening since a reset emptied a list that had storage
}

// checkRingMatchesSlice drives ring and the reference model through the same
// seeded sequence of remembers, with reset() standing for whatever empties the
// list under test (it starts with one), and after every step requires the same
// verdict, the same length and the same id at every logical index, an entry
// width that never shrinks, and the list's own invariant (check).
//
// Ids are drawn from span residues plus a multiple of the filter size, so
// distinct ids share filter bits all the time. The widest multiple allowed
// grows with the step, from the three the residues alone need to the whole
// 24-bit id space with a sixth of the steps left, so wider ids keep arriving
// into lists in every state; 0 and the widest id of the moment (2²⁴ − 1 at
// the end) are drawn now and then on their own.
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
	base := min(bits.Len(uint(span-1+2*neighborFilterBits)), idBits)
	draw := func(step int) PeerID {
		top := base + (idBits-base)*min(6*step, 5*steps)/(5*steps)
		widest := 1<<top - 1
		switch rng.Intn(64) {
		case 0:
			return 0
		case 1:
			return PeerID(widest)
		}
		r, k := rng.Intn(span), rng.Intn(4)
		if k == 3 {
			k = (widest - r) / neighborFilterBits
		}
		return PeerID(r + neighborFilterBits*k)
	}
	wrapped, emptied := false, false
	for step := 0; step < steps; step++ {
		if resetEvery > 0 && rng.Intn(resetEvery) == 0 {
			reset()
			ref = ref[:0]
			cov.resets++
			wrapped, emptied = false, len(ring.words) > 0
		}
		id := draw(step)
		listed := slices.Contains(ref, id)
		if ring.filter != nil && limit > 0 && !listed {
			if bitSet(id) {
				cov.aliasHits++
			} else {
				cov.filtered++
			}
		}
		head, stale, width, n := ring.head, ring.stale, ring.width, ring.len()
		got, want := ring.remember(id, limit), ref.remember(id, limit)
		if got != want {
			t.Fatalf("step %d: remember(%d) = %v, the slice says %v", step, id, got, want)
		}
		if head != 0 && ring.head == 0 {
			cov.wraps++
			wrapped = true
		}
		if ring.stale < stale {
			cov.rebuilds++
		}
		switch {
		case ring.width < width:
			t.Fatalf("step %d: entry width shrank from %d to %d bits", step, width, ring.width)
		case ring.width > width && width > 0:
			switch {
			case emptied:
				cov.widenAfterReset++
				emptied = false
			case wrapped:
				cov.widenAfterWrap++
			case n > 0 && n < limit:
				cov.widenMidList++
			}
		}
		if err := ring.check(limit); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if ring.len() != len(ref) {
			t.Fatalf("step %d: ring holds %d ids, the slice %d", step, ring.len(), len(ref))
		}
		for i, want := range ref {
			if got := ring.at(i); got != want {
				t.Fatalf("step %d: ring.at(%d) = %d, the slice holds %d there", step, i, got, want)
			}
		}
	}
	return cov
}

// TestNeighborRingMatchesSliceReference checks a node's neighbour list
// against the slice it replaced, through the node: Join is what empties the
// list between sessions. The node is alone in its world, so nothing but the
// test writes its list. Every list longer than one entry must see a wider id
// arrive mid-list, after a reset and after a wrap.
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
			// Each sequence gets a node of its own, so each starts from an
			// empty list with no storage and can widen all the way.
			session := func() (*Node, func()) {
				w := buildWorld(t, 1, 1, 0)
				nd := w.peers[0]
				prof := *nd.Profile
				prof.NeighborListMax = tc.limit
				nd.Profile = &prof
				nd.Join()
				return nd, func() {
					nd.Leave()
					nd.Join()
				}
			}
			// Three ids per listed slot, so most remembers of a full list
			// evict; a reset now and then, and one long stretch without.
			nd, rejoin := session()
			cov := checkRingMatchesSlice(t, &nd.neighbors, rejoin, 11, tc.limit, tc.limit+1, 12*tc.limit+50, 2*tc.limit+10)
			nd, rejoin = session()
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
			if tc.limit > 1 && (cov.widenMidList == 0 || cov.widenAfterReset == 0 || more.widenAfterWrap == 0) {
				t.Errorf("wider ids arrived mid-list %d times, after a reset %d times and after a wrap %d times; want each",
					cov.widenMidList, cov.widenAfterReset, more.widenAfterWrap)
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
// 600 and keeps remembering, at each entry width a swarm can need (11 bits at
// PPLive's 1,493 nodes, 14 at 10⁴, 17 at 10⁵, 24 at the id limit): the
// storage must end at exactly the words 600 entries of that width take, and
// never pass them on the way. Growing by append would leave the list in room
// for 864 entries. The first 300 ids are narrow, so the list also widens
// half-way up.
func TestNeighborRingStorageStopsAtTheBound(t *testing.T) {
	const limit = 600
	for _, width := range []int{11, 14, 17, 24} {
		bound := (limit*width + 63) / 64
		var ring neighborRing
		for i := 0; i < 2*limit; i++ {
			id := PeerID(i)
			if i >= limit/2 {
				id = PeerID(1<<width - 1 - (i - limit/2))
			}
			ring.remember(id, limit)
			if len(ring.words) > bound {
				t.Fatalf("%d bits: after %d ids the storage is %d words, past the %d the bound needs", width, i+1, len(ring.words), bound)
			}
		}
		if ring.len() != limit || int(ring.width) != width || len(ring.words) != bound {
			t.Errorf("%d bits: full list holds %d entries of %d bits in %d words, want %d in %d words",
				width, ring.len(), ring.width, len(ring.words), limit, bound)
		}
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
	f.Add(int64(7), uint16(600), uint16(65535), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, limit, span, resetEvery uint16) {
		limit %= 1024
		var ring neighborRing
		checkRingMatchesSlice(t, &ring, ring.reset, seed, int(limit), int(span)+1, 6*int(limit)+100, int(resetEvery))
	})
}
