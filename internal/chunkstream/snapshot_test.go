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

// TestAdvertMatchesPublishedMap is the property the overlay's shared views
// rest on: after Publish, Advert.Has answers exactly as the map's Has did,
// for ids below, inside and past the window, whatever the base and whether
// or not the window fills its last word.
func TestAdvertMatchesPublishedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, window := range []int{1, 64, 90, 128, 129} {
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
			ad = m.Publish(ad) // rounds after the first rewrite in place
			if len(ad) != 1+(window+63)/64 {
				t.Fatalf("window %d: advert is %d words", window, len(ad))
			}
			for id := base - 130; id < base+ChunkID(window)+130; id++ {
				if ad.Has(id) != m.Has(id) {
					t.Fatalf("window %d base %d: Advert.Has(%d) = %v, map says %v",
						window, base, id, ad.Has(id), m.Has(id))
				}
			}
		}
	}
}

func TestAdvertNilAdvertisesNothing(t *testing.T) {
	var ad Advert
	for _, id := range []ChunkID{-1, 0, 1, 63, 64, 1 << 40} {
		if ad.Has(id) {
			t.Errorf("nil advert lists %d", id)
		}
	}
}

// TestPublishReusesOrReplaces pins the two halves of the session rule: a
// publisher handing its advert back rewrites the words every viewer holds,
// and one handing nil back leaves the previous announcement frozen.
func TestPublishReusesOrReplaces(t *testing.T) {
	m := NewBufferMap(10, 90)
	m.Set(12)
	first := m.Publish(nil)
	view := first // what a partner record keeps

	m.Set(40)
	if view.Has(40) {
		t.Fatal("view changed before the next Publish")
	}
	if again := m.Publish(first); &again[0] != &first[0] {
		t.Fatal("Publish into a large enough advert reallocated")
	}
	if !view.Has(40) {
		t.Error("in-place Publish not visible through the view")
	}

	m.Reset(500)
	m.Set(510)
	fresh := m.Publish(nil)
	if &fresh[0] == &first[0] {
		t.Fatal("Publish(nil) reused the old words")
	}
	if !view.Has(12) || !view.Has(40) || view.Has(510) {
		t.Error("old announcement changed after a fresh Publish")
	}
	if !fresh.Has(510) || fresh.Has(12) {
		t.Error("fresh announcement wrong")
	}
}
