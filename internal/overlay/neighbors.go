package overlay

import (
	"fmt"
	"math/bits"
)

// The neighbour list's membership filter: one bit per residue of the peer id
// modulo neighborFilterBits (ids are dense, so residues spread evenly). A
// list shorter than neighborFilterMin entries is cheaper to scan than the
// filter is to keep, and most lists of most runs are: those own no filter.
const (
	neighborFilterBits = 2048
	neighborFilterMin  = 128
)

// neighborRing is a node's neighbour list: the peers it has contacted,
// oldest first, without duplicates, bounded like a FIFO. It grows up to the
// bound, its storage doubling but never past it; from then on a new entry
// overwrites the oldest in place and head moves on, so logical index i (at)
// is where a slice shifted down on every eviction would hold the same id.
//
// Entries are bit-packed, width bits each: slot s holds bits [s·width,
// (s+1)·width) of words, low bits first, and may straddle two words. width
// is bits.Len of the widest id the list has held (at least 1, never more
// than the 24 bits a peer id has): 11 bits in a 1,500-peer swarm, 14 at
// 10⁴. A wider id first moves every entry into storage of its width
// (repack), as a grow does.
type neighborRing struct {
	words []uint64 // the packed entries: room for slots() of them
	// filter answers "certainly absent" without the scan: a clear bit means
	// no listed id has that residue. A set bit decides nothing, so the scan
	// follows and membership stays exact. Nil below neighborFilterMin entries.
	filter *[neighborFilterBits / 64]uint64
	n      int32 // entries listed
	head   int32 // slot of the oldest entry; 0 until the list is full
	// stale counts evictions since the filter was last exact. An evicted
	// id's bit stays set, which costs a wasted scan and never a wrong
	// answer; the filter is rebuilt from the entries every bound/4 evictions.
	stale int32
	width uint8 // bits per entry; 0 until the first entry
}

// neighborFilterBit locates id's bit in a filter: word index and mask.
func neighborFilterBit(id PeerID) (word uint, mask uint64) {
	return uint(id) % neighborFilterBits / 64, 1 << (uint(id) % 64)
}

func (r *neighborRing) len() int { return int(r.n) }

// slots reports how many entries the storage holds at the current width.
func (r *neighborRing) slots() int {
	if r.width == 0 {
		return 0
	}
	return len(r.words) * 64 / int(r.width)
}

// window reads the 64 bits of storage from bit offset off on, low bits
// first; bits past the storage read as zero.
func (r *neighborRing) window(off uint) uint64 {
	i, s := off/64, off%64
	v := r.words[i] >> s
	if s != 0 && i+1 < uint(len(r.words)) {
		v |= r.words[i+1] << (64 - s)
	}
	return v
}

// unpack reads the entry at bit offset off.
func (r *neighborRing) unpack(off uint) PeerID {
	return PeerID(r.window(off) & (1<<r.width - 1))
}

// pack writes id, which fits in width bits, at bit offset off.
func (r *neighborRing) pack(off uint, id PeerID) {
	i, s := off/64, off%64
	mask, v := uint64(1)<<r.width-1, uint64(id)
	r.words[i] = r.words[i]&^(mask<<s) | v<<s
	if s+uint(r.width) > 64 {
		r.words[i+1] = r.words[i+1]&^(mask>>(64-s)) | v>>(64-s)
	}
}

// at returns the i-th oldest entry.
func (r *neighborRing) at(i int) PeerID {
	i += int(r.head)
	if i >= int(r.n) {
		i -= int(r.n)
	}
	return r.unpack(uint(i) * uint(r.width))
}

// wordLanes[w] cuts a 64-bit word into whole w-bit lanes: how many there
// are, and the word with the lowest bit of each lane set.
var wordLanes = func() (lanes [32 - keyIDShift + 1]struct {
	per  uint
	lows uint64
}) {
	for w := 1; w < len(lanes); w++ {
		lanes[w].per = uint(64 / w)
		for lane := 0; lane+w <= 64; lane += w {
			lanes[w].lows |= 1 << lane
		}
	}
	return lanes
}()

// contains scans the listed entries for id, a 64-bit window of whole
// entries at a time (unpacking them one by one costs more than a scan of
// 32-bit ids): the window XOR id in every lane has a zero lane exactly when
// some entry equals id, and (x − lows) &^ x & highs is non-zero exactly when
// x has a zero lane.
func (r *neighborRing) contains(id PeerID) bool {
	w := uint(r.width)
	if r.n == 0 || uint(bits.Len32(uint32(id))) > w {
		return false // empty, or id is wider than any id the list has held
	}
	per, lows := wordLanes[w].per, wordLanes[w].lows
	highs, want := lows<<(w-1), uint64(id)*lows
	n, off := uint(r.n), uint(0)
	for ; n > per; n -= per {
		if x := r.window(off) ^ want; (x-lows)&^x&highs != 0 {
			return true
		}
		off += per * w
	}
	x := r.window(off) ^ want | highs&^(1<<(n*w)-1) // lanes past the last entry never match
	return (x-lows)&^x&highs != 0
}

// repack moves the entries into fresh storage of the given slot count and
// entry width, each to the slot it had.
func (r *neighborRing) repack(slots, width int) {
	old := *r
	r.words = make([]uint64, (slots*width+63)/64)
	r.width = uint8(width)
	if r.width == old.width {
		copy(r.words, old.words) // a grow: the same layout, longer
		return
	}
	for s := uint(0); s < uint(r.n); s++ {
		r.pack(s*uint(width), old.unpack(s*uint(old.width)))
	}
}

// reset empties the list, keeping its storage and width for the next
// session.
func (r *neighborRing) reset() {
	r.n, r.head, r.stale = 0, 0, 0
	if r.filter != nil {
		clear(r.filter[:])
	}
}

// remember lists id as the newest entry unless it is listed already,
// evicting the oldest once the list holds limit entries; it reports whether
// id was added.
func (r *neighborRing) remember(id PeerID, limit int) bool {
	if limit <= 0 {
		return false
	}
	word, mask := neighborFilterBit(id)
	if (r.filter == nil || r.filter[word]&mask != 0) && r.contains(id) {
		return false
	}
	full := int(r.n) >= limit
	width := max(bits.Len32(uint32(id)), int(r.width), 1)
	switch {
	case !full && (int(r.n)+1)*width > 64*len(r.words):
		// No room for the entry: double the storage, never past the bound.
		r.repack(min(max(2*int(r.n), 8), limit), width)
	case width > int(r.width):
		r.repack(max(min(r.slots(), limit), int(r.n)), width)
	}
	if !full {
		r.pack(uint(r.n)*uint(r.width), id)
		r.n++
	} else {
		r.pack(uint(r.head)*uint(r.width), id)
		if r.head++; r.head == r.n {
			r.head = 0
		}
		r.stale++
	}
	switch {
	case r.filter == nil && int(r.n) >= neighborFilterMin:
		r.filter = new([neighborFilterBits / 64]uint64)
		r.refilter()
	case r.filter != nil && int(r.stale)*4 >= limit:
		r.refilter()
	case r.filter != nil:
		r.filter[word] |= mask
	}
	return true
}

// refilter makes the filter exact again: the bits of the listed ids, no other.
func (r *neighborRing) refilter() {
	clear(r.filter[:])
	w := uint(r.width)
	for off, end := uint(0), uint(r.n)*w; off < end; off += w {
		word, mask := neighborFilterBit(r.unpack(off))
		r.filter[word] |= mask
	}
	r.stale = 0
}

// check reports the first broken rule of the list and its filter under bound
// limit, nil when none. Only tests call it.
func (r *neighborRing) check(limit int) error {
	n, w, limit := int(r.n), int(r.width), max(limit, 0)
	switch {
	case n > limit || r.head < 0 || r.head > 0 && r.head >= r.n || w > bits.Len(MaxPeerID) || n > r.slots() || len(r.words) > (limit*w+63)/64:
		return fmt.Errorf("%d ids of %d bits, the oldest at slot %d, in %d words under a bound of %d", n, w, r.head, len(r.words), limit)
	case r.filter == nil && n >= neighborFilterMin:
		return fmt.Errorf("%d ids listed and no filter", n)
	case r.filter == nil:
		return nil
	case int(r.stale)*4 >= limit:
		return fmt.Errorf("%d stale bits outstanding at a bound of %d", r.stale, limit)
	}
	set := 0
	for _, word := range r.filter {
		set += bits.OnesCount64(word)
	}
	if set > n+int(r.stale) {
		return fmt.Errorf("%d filter bits set for %d listed ids and %d evictions", set, n, r.stale)
	}
	for i := range n {
		if word, mask := neighborFilterBit(r.at(i)); r.filter[word]&mask == 0 {
			return fmt.Errorf("listed id %d has no filter bit", r.at(i))
		}
	}
	return nil
}
