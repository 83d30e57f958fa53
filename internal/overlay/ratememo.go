package overlay

import (
	"cmp"
	"fmt"
	"slices"

	"napawine/internal/units"
)

// rateMemo is a node's delivery-rate memory: the last estimate of every
// remote that has delivered to it, as a run sorted by id behind one pointer,
// nil until the first sample. Nodes remember a few remotes each (2.7 on
// average at 10⁴ peers), and the run is only ever read or written by key.
type rateMemo struct{ run *[]rateEntry }

// rateEntry is one remembered remote: 8 bytes, the rate held in 32 bits
// (rate32).
type rateEntry struct {
	id   PeerID
	rate uint32
}

// search returns id's position in the run, or its insertion point.
func (m rateMemo) search(id PeerID) (int, bool) {
	if m.run == nil {
		return 0, false
	}
	return slices.BinarySearchFunc(*m.run, id, func(e rateEntry, id PeerID) int { return cmp.Compare(e.id, id) })
}

// get returns the rate remembered for id, 0 when there is none.
func (m rateMemo) get(id PeerID) units.BitRate {
	if i, ok := m.search(id); ok {
		return units.BitRate((*m.run)[i].rate)
	}
	return 0
}

// set remembers r as id's rate in the memory of node self. A rate past 32
// bits panics, naming both peers (rate32).
func (m *rateMemo) set(self, id PeerID, r units.BitRate) {
	r32 := rate32(r, self, id)
	i, ok := m.search(id)
	if m.run == nil {
		m.run = new([]rateEntry)
	}
	if ok {
		(*m.run)[i].rate = r32
	} else {
		*m.run = slices.Insert(*m.run, i, rateEntry{id, r32})
	}
}

// check reports the first broken rule of the memory, nil when none. Only
// tests call it.
func (m rateMemo) check() error {
	for i := 1; m.run != nil && i < len(*m.run); i++ {
		if a, b := (*m.run)[i-1].id, (*m.run)[i].id; a >= b {
			return fmt.Errorf("rate memory ids out of order at %d: %d, then %d", i, a, b)
		}
	}
	return nil
}
