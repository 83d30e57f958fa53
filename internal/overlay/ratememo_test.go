package overlay

import (
	"testing"
	"unsafe"

	"napawine/internal/units"
)

// FuzzRateMemo drives the sorted run that holds a node's delivery-rate
// memory against the map it replaced, through interleaved sets and gets of
// ids anywhere in the 24 bits a peer id has. Each op is four bytes: a
// selector whose low bit picks set (1) or get (0), then the id, big-endian.
// After every step the run must pass check, answer every id the model holds
// with the model's rate, answer 0 for the op's id when the model has none,
// and hold exactly the model's entries — and before the first set it must
// still be nil.
func FuzzRateMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 1, 0x80, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 3, 0x80, 0, 0, 0, 0x80, 0, 0})
	f.Add([]byte{1, 0, 0, 9, 1, 0, 0, 7, 1, 0, 0, 5, 1, 0, 0, 3, 1, 0, 0, 1, 2, 0, 0, 4, 5, 0, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var memo rateMemo
		model := make(map[PeerID]units.BitRate)
		for step := 0; step+4 <= len(ops); step += 4 {
			op := ops[step : step+4]
			id := PeerID(op[1])<<16 | PeerID(op[2])<<8 | PeerID(op[3])
			if op[0]&1 == 1 {
				r := units.BitRate(step)*1000 + units.BitRate(op[0])
				memo.set(0, id, r)
				model[id] = r
			}
			if err := memo.check(); err != nil {
				t.Fatalf("step %d: %v", step/4, err)
			}
			if got, want := memo.get(id), model[id]; got != want {
				t.Fatalf("step %d: get(%d) = %d, want %d", step/4, id, got, want)
			}
			if len(model) == 0 {
				if memo.run != nil {
					t.Fatalf("step %d: a memo nothing was set in holds a run", step/4)
				}
				continue
			}
			if n := len(*memo.run); n != len(model) {
				t.Fatalf("step %d: %d entries, want %d", step/4, n, len(model))
			}
			for id, want := range model {
				if got := memo.get(id); got != want {
					t.Fatalf("step %d: get(%d) = %d, want %d", step/4, id, got, want)
				}
			}
		}
	})
}

// TestRateEntryIsEightBytes pins the memory's entry: a 32-bit id beside a
// 32-bit rate (rate32), no padding.
func TestRateEntryIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(rateEntry{}); size != 8 {
		t.Errorf("rateEntry is %d bytes, want 8", size)
	}
}
