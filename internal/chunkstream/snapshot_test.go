package chunkstream

import (
	"math/rand"
	"testing"
)

func TestLoadSnapshotRoundTrip(t *testing.T) {
	src := NewBufferMap(100, 128)
	src.Set(100)
	src.Set(177)
	src.Set(227)
	base, bits := src.Snapshot()

	dst := NewBufferMap(0, 128)
	dst.Set(5) // pre-existing state must be fully replaced
	dst.LoadSnapshot(base, bits)
	if dst.Base() != 100 {
		t.Fatalf("base = %d", dst.Base())
	}
	for id := ChunkID(100); id < 228; id++ {
		if dst.Has(id) != src.Has(id) {
			t.Fatalf("divergence at %d", id)
		}
	}
	if dst.Has(5) {
		t.Error("old contents survived LoadSnapshot")
	}
	if dst.Count() != 3 {
		t.Errorf("Count = %d, want 3", dst.Count())
	}
}

func TestLoadSnapshotWidthMismatchPanics(t *testing.T) {
	m := NewBufferMap(0, 128)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch should panic")
		}
	}()
	m.LoadSnapshot(0, make([]uint64, 1))
}

func TestLoadSnapshotClearsTailBits(t *testing.T) {
	// A malicious/corrupt snapshot with bits beyond the window must not
	// leak into Has/Count.
	m := NewBufferMap(0, 70) // 2 words, 58 tail bits unused
	bits := []uint64{0, ^uint64(0)}
	m.LoadSnapshot(0, bits)
	if m.Count() != 6 { // only bits 64..69 are in-window
		t.Errorf("Count = %d, want 6", m.Count())
	}
	if m.Has(70) || m.Has(100) {
		t.Error("out-of-window bits visible")
	}
}

// checkAdvert fails unless ad answers exactly as m for every id from 130
// below m's base to 130 past the widest window an advert carries.
func checkAdvert(t testing.TB, ad Advert, m *BufferMap) {
	t.Helper()
	base := m.Base()
	for id := base - 130; id < base+MaxWindow+130; id++ {
		if ad.Has(id) != m.Has(id) {
			t.Fatalf("window %d base %d: Advert.Has(%d) = %v, map says %v",
				m.Window(), base, id, ad.Has(id), m.Has(id))
		}
	}
}

// TestAdvertMatchesPublishedMap is the property the overlay's shared views
// rest on: after Publish, Advert.Has answers exactly as the map's Has did,
// for ids below, inside and past the window, whatever the base and whether
// or not the window fills its last word or the block.
func TestAdvertMatchesPublishedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, window := range []int{1, 64, 90, 128, 129, 191, MaxWindow} {
		var ad Advert
		for round := 0; round < 50; round++ {
			base := ChunkID(rng.Int63n(1 << 40))
			if round == 0 {
				base = 0 // ids below the base are negative here
			}
			m := NewBufferMap(base, window)
			for i := rng.Intn(window + 1); i > 0; i-- {
				m.Set(base + ChunkID(rng.Intn(window)))
			}
			prev := ad
			ad = m.Publish(ad) // rounds after the first rewrite in place
			if round > 0 && ad != prev {
				t.Fatalf("window %d: round %d published into a new block", window, round)
			}
			checkAdvert(t, ad, m)
		}
	}
}

// TestPublishNarrowOverWide: a block last written by a wider map forgets the
// bits past the narrower map's window when that map publishes into it.
func TestPublishNarrowOverWide(t *testing.T) {
	wide := NewBufferMap(1000, MaxWindow)
	for id := wide.Base(); id < wide.Base()+MaxWindow; id++ {
		wide.Set(id)
	}
	ad := wide.Publish(Advert{})
	checkAdvert(t, ad, wide)
	for _, window := range []int{129, 64, 1} {
		narrow := NewBufferMap(1000, window)
		narrow.Set(1000)
		if again := narrow.Publish(ad); again != ad {
			t.Fatalf("window %d: Publish into a block reallocated", window)
		}
		checkAdvert(t, ad, narrow)
	}
}

func TestPublishPastMaxWindowPanics(t *testing.T) {
	m := NewBufferMap(0, MaxWindow+1)
	defer func() {
		if recover() == nil {
			t.Error("a window past MaxWindow published")
		}
	}()
	m.Publish(Advert{})
}

func TestAdvertNilAdvertisesNothing(t *testing.T) {
	var ad Advert
	for _, id := range []ChunkID{-1, 0, 1, 63, 64, 1 << 40} {
		if ad.Has(id) {
			t.Errorf("zero advert lists %d", id)
		}
	}
	if ad.Clone() != ad {
		t.Error("the zero advert clones to a block")
	}
}

// TestPublishReusesOrReplaces pins the two halves of the session rule: a
// publisher handing its advert back rewrites the block every viewer holds,
// and one handing the zero advert back leaves the previous announcement
// frozen. A clone is frozen the same way.
func TestPublishReusesOrReplaces(t *testing.T) {
	m := NewBufferMap(10, 90)
	m.Set(12)
	first := m.Publish(Advert{})
	view := first // what a partner record keeps
	clone := first.Clone()
	if clone == first {
		t.Fatal("Clone shares the block")
	}

	m.Set(40)
	if view.Has(40) {
		t.Fatal("view changed before the next Publish")
	}
	if again := m.Publish(first); again != first {
		t.Fatal("Publish into an existing block reallocated")
	}
	if !view.Has(40) {
		t.Error("in-place Publish not visible through the view")
	}
	if !clone.Has(12) || clone.Has(40) {
		t.Error("in-place Publish visible through a clone")
	}

	m.Reset(500)
	m.Set(510)
	fresh := m.Publish(Advert{})
	if fresh == first {
		t.Fatal("Publish into the zero advert reused the old block")
	}
	if !view.Has(12) || !view.Has(40) || view.Has(510) {
		t.Error("old announcement changed after a fresh Publish")
	}
	if !fresh.Has(510) || fresh.Has(12) {
		t.Error("fresh announcement wrong")
	}
}

// FuzzAdvertMatchesBufferMap drives one map of a drawn window through random
// Set, Advance and Reset steps, publishing after each into one block that a
// full map of the widest window wrote first, and requires the advert to
// answer as the map does for every id from 130 below the base to 130 past
// MaxWindow above it.
func FuzzAdvertMatchesBufferMap(f *testing.F) {
	f.Add(uint8(89), int64(0), []byte{0, 5, 1, 3, 2, 9})
	f.Add(uint8(191), int64(1<<40), []byte{0, 191, 0, 0, 1, 64, 0, 130})
	f.Add(uint8(0), int64(7), []byte{0, 0, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, w uint8, base int64, steps []byte) {
		window := 1 + int(w)%MaxWindow
		base &= 1<<40 - 1
		// The block was last written by a full map of the widest window.
		full := NewBufferMap(0, MaxWindow)
		for id := range ChunkID(MaxWindow) {
			full.Set(id)
		}
		block := full.Publish(Advert{})
		m := NewBufferMap(ChunkID(base), window)
		ad := m.Publish(block)
		if ad != block {
			t.Fatal("Publish into an existing block reallocated")
		}
		checkAdvert(t, ad, m)
		for len(steps) >= 2 {
			op, arg := steps[0], ChunkID(steps[1])
			steps = steps[2:]
			switch op % 3 {
			case 0:
				m.Set(m.Base() + arg)
			case 1:
				m.Advance(m.Base() + arg)
			default:
				m.Reset(m.Base() + arg)
			}
			if ad = m.Publish(ad); ad != block {
				t.Fatal("Publish into an existing block reallocated")
			}
			checkAdvert(t, ad, m)
		}
	})
}
