package chunkstream

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"napawine/internal/sim"
	"napawine/internal/units"
)

func TestCalendarBasics(t *testing.T) {
	// The paper's channel: 384 kbit/s. With 48 KB chunks, one chunk per
	// second exactly.
	c := NewCalendar(384*units.Kbps, 48*units.KB)
	if c.Interval() != time.Second {
		t.Fatalf("interval = %v, want 1s", c.Interval())
	}
	if c.ChunkSize() != 48*units.KB {
		t.Error("accessors disagree with constructor")
	}
	if got := c.LatestAt(0); got != 0 {
		t.Errorf("LatestAt(0) = %d, want 0", got)
	}
	if got := c.LatestAt(sim.Time(2500 * time.Millisecond)); got != 2 {
		t.Errorf("LatestAt(2.5s) = %d, want 2", got)
	}
	if got := c.LatestAt(-1); got != -1 {
		t.Errorf("LatestAt(<0) = %d, want -1", got)
	}
	if got := c.BornAt(3); got != sim.Time(3*time.Second) {
		t.Errorf("BornAt(3) = %v, want 3s", got)
	}
}

func TestCalendarRoundTripProperty(t *testing.T) {
	c := NewCalendar(384*units.Kbps, 16*units.KB)
	f := func(idRaw uint32) bool {
		id := ChunkID(idRaw)
		// A chunk is the latest chunk at its own birth instant.
		return c.LatestAt(c.BornAt(id)) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCalendarPanics(t *testing.T) {
	assertPanics(t, func() { NewCalendar(0, units.KB) })
	assertPanics(t, func() { NewCalendar(units.Kbps, 0) })
}

func TestBufferMapSetHas(t *testing.T) {
	m := NewBufferMap(100, 64)
	if m.Has(100) {
		t.Error("fresh map should be empty")
	}
	if !m.Set(100) || !m.Set(163) {
		t.Error("in-window Set should succeed")
	}
	if m.Set(99) || m.Set(164) {
		t.Error("out-of-window Set should fail")
	}
	if !m.Has(100) || !m.Has(163) {
		t.Error("Set chunks should read back")
	}
	if m.Has(99) || m.Has(164) || m.Has(150) {
		t.Error("unset/out-of-window chunks should read false")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
	if m.Base() != 100 || m.Window() != 64 {
		t.Error("accessors wrong")
	}
}

func TestBufferMapAdvance(t *testing.T) {
	m := NewBufferMap(0, 100)
	for i := ChunkID(0); i < 100; i += 2 {
		m.Set(i)
	}
	m.Advance(10)
	if m.Base() != 10 {
		t.Fatalf("base = %d", m.Base())
	}
	for i := ChunkID(10); i < 100; i++ {
		want := i%2 == 0
		if m.Has(i) != want {
			t.Fatalf("after advance Has(%d) = %v, want %v", i, m.Has(i), want)
		}
	}
	if m.Has(8) {
		t.Error("dropped chunk still readable")
	}
	// The freed tail must be writable.
	if !m.Set(105) || !m.Has(105) {
		t.Error("tail after advance not writable")
	}
}

func TestBufferMapAdvanceFar(t *testing.T) {
	m := NewBufferMap(0, 50)
	for i := ChunkID(0); i < 50; i++ {
		m.Set(i)
	}
	m.Advance(1000) // far beyond the window: everything drops
	if m.Count() != 0 {
		t.Errorf("Count after far advance = %d, want 0", m.Count())
	}
	if !m.Set(1001) || !m.Has(1001) {
		t.Error("map unusable after far advance")
	}
}

func TestBufferMapAdvanceZero(t *testing.T) {
	m := NewBufferMap(5, 10)
	m.Set(7)
	m.Advance(5) // no-op
	if !m.Has(7) || m.Base() != 5 {
		t.Error("zero advance changed state")
	}
}

func TestBufferMapAdvanceBackwardsPanics(t *testing.T) {
	m := NewBufferMap(10, 10)
	assertPanics(t, func() { m.Advance(9) })
}

func TestBufferMapWindowPanics(t *testing.T) {
	assertPanics(t, func() { NewBufferMap(0, 0) })
	assertPanics(t, func() { NewBufferMap(0, -5) })
}

// Property: Advance behaves exactly like a reference set-based window.
func TestBufferMapAdvanceEquivalenceProperty(t *testing.T) {
	f := func(ops []uint16, advances []uint8) bool {
		const window = 96
		m := NewBufferMap(0, window)
		ref := map[ChunkID]bool{}
		base := ChunkID(0)
		ai := 0
		for i, op := range ops {
			id := base + ChunkID(op%window*2) // half in-window, half out
			inWindow := id >= base && id < base+window
			if m.Set(id) != inWindow {
				return false
			}
			if inWindow {
				ref[id] = true
			}
			if i%3 == 2 && ai < len(advances) {
				base += ChunkID(advances[ai] % 40)
				ai++
				m.Advance(base)
				for k := range ref {
					if k < base {
						delete(ref, k)
					}
				}
			}
		}
		for id := base; id < base+window; id++ {
			if m.Has(id) != ref[id] {
				return false
			}
		}
		return m.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMissing(t *testing.T) {
	m := NewBufferMap(10, 20)
	m.Set(11)
	m.Set(13)
	got := m.Missing(10, 15)
	want := []ChunkID{10, 12, 14}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
	// Clamped to window on both ends.
	if got := m.Missing(0, 1000); len(got) != 18 {
		t.Errorf("clamped Missing length = %d, want 18", len(got))
	}
	if got := m.Missing(100, 200); got != nil {
		t.Errorf("out-of-window Missing = %v, want nil", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := NewBufferMap(0, 64)
	m.Set(5)
	base, bits := m.Snapshot()
	if base != 0 || bits[0] != 1<<5 {
		t.Fatalf("snapshot = %d %x", base, bits)
	}
	bits[0] = 0
	if !m.Has(5) {
		t.Error("snapshot shares storage with map")
	}
}

func TestWireSize(t *testing.T) {
	m := NewBufferMap(0, 128)
	if got := m.WireSize(); got != units.ByteSize(8+2*8) {
		t.Errorf("WireSize = %v", got)
	}
}

func TestPlayoutContinuity(t *testing.T) {
	m := NewBufferMap(0, 100)
	p := NewPlayout(0)
	if p.Continuity() != 1 {
		t.Error("fresh playout continuity should be 1")
	}
	for i := ChunkID(0); i < 10; i++ {
		if i != 4 && i != 7 {
			m.Set(i)
		}
	}
	p.CatchUp(m, 10)
	if p.Delivered() != 8 || p.Missed() != 2 {
		t.Fatalf("delivered/missed = %d/%d, want 8/2", p.Delivered(), p.Missed())
	}
	if got := p.Continuity(); got != 0.8 {
		t.Errorf("continuity = %v, want 0.8", got)
	}
	if p.Next() != 10 {
		t.Errorf("Next = %d, want 10", p.Next())
	}
	// CatchUp is idempotent at the same deadline.
	p.CatchUp(m, 10)
	if p.Delivered() != 8 || p.Missed() != 2 {
		t.Error("repeated CatchUp changed counters")
	}
}

func TestPlayoutLateDeliveryDoesNotRewind(t *testing.T) {
	m := NewBufferMap(0, 100)
	p := NewPlayout(0)
	p.CatchUp(m, 5) // all 5 missed
	m.Set(2)        // arrives too late
	p.CatchUp(m, 5)
	if p.Missed() != 5 || p.Delivered() != 0 {
		t.Errorf("late delivery rewrote history: %d/%d", p.Delivered(), p.Missed())
	}
}

func TestBufferMapStressRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := NewBufferMap(0, 256)
	base := ChunkID(0)
	live := map[ChunkID]bool{}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			id := base + ChunkID(rng.Intn(256))
			m.Set(id)
			live[id] = true
		case 2:
			base += ChunkID(rng.Intn(8))
			m.Advance(base)
			for k := range live {
				if k < base {
					delete(live, k)
				}
			}
		}
	}
	for id := base; id < base+256; id++ {
		if m.Has(id) != live[id] {
			t.Fatalf("divergence at %d", id)
		}
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func BenchmarkBufferMapSetAdvance(b *testing.B) {
	m := NewBufferMap(0, 512)
	for i := 0; i < b.N; i++ {
		m.Set(ChunkID(i))
		// Slide the window forward periodically, like a live stream;
		// never backwards (Advance would rightly panic).
		if i%64 == 63 && i > 400 {
			m.Advance(ChunkID(i - 400))
		}
	}
}

func BenchmarkMissing(b *testing.B) {
	m := NewBufferMap(0, 512)
	for i := 0; i < 512; i += 3 {
		m.Set(ChunkID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Missing(0, 512)
	}
}

func TestBufferMapReset(t *testing.T) {
	m := NewBufferMap(0, 100)
	for i := 0; i < 100; i += 2 {
		m.Set(ChunkID(i))
	}
	m.Reset(500)
	if m.Base() != 500 {
		t.Errorf("Base = %d after Reset, want 500", m.Base())
	}
	if m.Window() != 100 {
		t.Errorf("Window = %d after Reset, want 100", m.Window())
	}
	if m.Count() != 0 {
		t.Errorf("Count = %d after Reset, want 0 (stale bits survived)", m.Count())
	}
	if !m.Set(550) || !m.Has(550) {
		t.Error("Set/Has broken after Reset")
	}
}

func TestPlayoutReset(t *testing.T) {
	m := NewBufferMap(0, 100)
	m.Set(0)
	p := NewPlayout(0)
	p.CatchUp(m, 3) // 1 delivered, 2 missed
	p.Reset(42)
	if p.Next() != 42 {
		t.Errorf("Next = %d after Reset, want 42", p.Next())
	}
	if p.Delivered() != 0 || p.Missed() != 0 {
		t.Errorf("counters survived Reset: delivered=%d missed=%d", p.Delivered(), p.Missed())
	}
	if p.Continuity() != 1 {
		t.Errorf("Continuity = %v after Reset, want 1", p.Continuity())
	}
}

// BenchmarkHas is the test a scheduler round makes per chunk of a 90-chunk
// window, over a half-full buffer map.
func BenchmarkHas(b *testing.B) {
	m := NewBufferMap(1000, 90)
	for i := 0; i < 90; i += 2 {
		m.Set(ChunkID(1000 + i))
	}
	for i := 0; b.Loop(); i++ {
		m.Has(ChunkID(1000 + i%90))
	}
}
