// Package chunkstream models the live video feed the swarm distributes: a
// constant-bit-rate chunk calendar (the paper's channel is 384 kbit/s
// CCTV-1 encoded with Windows Media 9), sliding-window buffer maps, the
// adverts peers publish of them, and a playout tracker for continuity
// accounting.
//
// Chunks are the unit of exchange in every 2008-era mesh-pull P2P-TV
// system: the source slices the stream into fixed-size pieces, peers
// advertise what they hold via buffer maps and pull missing pieces from
// partners before their playout deadline. A peer's BufferMap is its own
// mutable holdings; an Advert is the read-only announcement of it that the
// peer publishes once per signalling round and every partner views.
package chunkstream

import (
	"fmt"
	"math/bits"
	"time"

	"napawine/internal/sim"
	"napawine/internal/units"
)

// ChunkID numbers chunks from 0 in stream order.
type ChunkID int64

// Calendar maps virtual time to chunk availability for a CBR stream.
type Calendar struct {
	size  units.ByteSize
	every time.Duration
}

// NewCalendar builds the chunk calendar for a stream of the given rate cut
// into chunks of the given size. It panics on non-positive parameters.
func NewCalendar(rate units.BitRate, chunkSize units.ByteSize) Calendar {
	if rate <= 0 || chunkSize <= 0 {
		panic(fmt.Sprintf("chunkstream: bad calendar rate=%v size=%v", rate, chunkSize))
	}
	return Calendar{size: chunkSize, every: rate.TransmitTime(chunkSize)}
}

// ChunkSize reports the size of every chunk.
func (c Calendar) ChunkSize() units.ByteSize { return c.size }

// Interval reports the wall-clock spacing between chunk births.
func (c Calendar) Interval() time.Duration { return c.every }

// LatestAt reports the newest chunk that exists at time t (chunk 0 is born
// at t=0), or -1 before the stream starts.
func (c Calendar) LatestAt(t sim.Time) ChunkID {
	if t < 0 {
		return -1
	}
	return ChunkID(int64(t) / int64(c.every))
}

// BornAt reports the instant chunk id comes into existence at the source.
func (c Calendar) BornAt(id ChunkID) sim.Time {
	return sim.Time(int64(id) * int64(c.every))
}

// BufferMap is a sliding-window set of chunk ids, the data structure peers
// gossip to advertise holdings. The window is a fixed-capacity bitfield:
// real clients cap their buffer at a few tens of seconds of stream.
type BufferMap struct {
	base   ChunkID // first id covered by the window
	window int     // capacity in chunks
	bits   []uint64
}

// NewBufferMap builds an empty map covering [base, base+window).
func NewBufferMap(base ChunkID, window int) *BufferMap {
	if window <= 0 {
		panic(fmt.Sprintf("chunkstream: non-positive window %d", window))
	}
	return &BufferMap{base: base, window: window, bits: make([]uint64, (window+63)/64)}
}

// Reset re-aims an existing map at [base, base+window) with nothing held,
// reusing the bitfield allocation. It is how the overlay recycles buffer
// maps across join/leave episodes instead of allocating one per join.
func (m *BufferMap) Reset(base ChunkID) {
	m.base = base
	for i := range m.bits {
		m.bits[i] = 0
	}
}

// Base reports the lowest chunk id the window covers.
func (m *BufferMap) Base() ChunkID { return m.base }

// Window reports the window capacity in chunks.
func (m *BufferMap) Window() int { return m.window }

// contains reports whether id falls inside the window.
func (m *BufferMap) contains(id ChunkID) bool {
	return id >= m.base && id < m.base+ChunkID(m.window)
}

// Set marks id as held. Ids outside the window are ignored and reported:
// the overlay treats an out-of-window delivery as wasted work.
func (m *BufferMap) Set(id ChunkID) bool {
	if !m.contains(id) {
		return false
	}
	off := int(id - m.base)
	m.bits[off/64] |= 1 << (off % 64)
	return true
}

// Has reports whether id is held. Anything outside the window reads false.
func (m *BufferMap) Has(id ChunkID) bool {
	if !m.contains(id) {
		return false
	}
	off := int(id - m.base)
	return m.bits[off/64]&(1<<(off%64)) != 0
}

// Count reports how many chunks are held.
func (m *BufferMap) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Advance slides the window so it starts at newBase, dropping ids below it.
// Sliding backwards is a programming error and panics (live streams only
// move forward).
func (m *BufferMap) Advance(newBase ChunkID) {
	if newBase < m.base {
		panic(fmt.Sprintf("chunkstream: Advance backwards %d < %d", newBase, m.base))
	}
	shift := int(newBase - m.base)
	if shift == 0 {
		return
	}
	if shift >= m.window {
		for i := range m.bits {
			m.bits[i] = 0
		}
		m.base = newBase
		return
	}
	// Shift the bitfield right by `shift` bits across words.
	wordShift, bitShift := shift/64, shift%64
	n := len(m.bits)
	for i := 0; i < n; i++ {
		var v uint64
		if i+wordShift < n {
			v = m.bits[i+wordShift] >> bitShift
			if bitShift > 0 && i+wordShift+1 < n {
				v |= m.bits[i+wordShift+1] << (64 - bitShift)
			}
		}
		m.bits[i] = v
	}
	// Clear any bits beyond the window capacity that the shift exposed.
	m.base = newBase
	m.clearTail()
}

// clearTail zeroes bits at positions ≥ window inside the last word.
func (m *BufferMap) clearTail() {
	extra := len(m.bits)*64 - m.window
	if extra > 0 {
		m.bits[len(m.bits)-1] &= ^uint64(0) >> extra
	}
}

// Missing lists held-elsewhere candidates: ids in [from, to) inside the
// window that are not held. The slice is freshly allocated.
func (m *BufferMap) Missing(from, to ChunkID) []ChunkID {
	if from < m.base {
		from = m.base
	}
	if max := m.base + ChunkID(m.window); to > max {
		to = max
	}
	var out []ChunkID
	for id := from; id < to; id++ {
		if !m.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// Snapshot encodes the holdings as (base, bitset copy), the owned-copy
// counterpart of Publish.
func (m *BufferMap) Snapshot() (ChunkID, []uint64) {
	return m.base, append([]uint64(nil), m.bits...)
}

// WireSize reports the bytes a buffer-map announcement occupies on the
// wire: 8 bytes of base plus the bitfield. Used to size signaling packets.
func (m *BufferMap) WireSize() units.ByteSize {
	return units.ByteSize(8 + len(m.bits)*8)
}

// LoadSnapshot replaces the map's contents with a snapshot received from a
// partner. The snapshot's word count must match the window capacity; a
// mismatch panics because it means two peers disagree about the protocol's
// window size.
func (m *BufferMap) LoadSnapshot(base ChunkID, bits []uint64) {
	if len(bits) != len(m.bits) {
		panic(fmt.Sprintf("chunkstream: snapshot width %d words, window needs %d", len(bits), len(m.bits)))
	}
	m.base = base
	copy(m.bits, bits)
	m.clearTail()
}

// MaxWindow is the widest buffer map an Advert can carry, in chunks: three
// bit words, twice the default 90-chunk window. Every advert block is this
// wide whatever the window, so an advert is one pointer rather than a slice
// header whose length and capacity would be the same for every advert of a
// network.
const MaxWindow = 192

// advertWords is an advert block's size: the base word, then the bit words.
const advertWords = 1 + MaxWindow/64

// Advert is one published announcement of a buffer map: a pointer to one
// fixed-width block whose word 0 is the base chunk id and whose remaining
// words are the bitfield. The publisher rewrites the block in place once per
// signalling round and hands the pointer to whoever should see its holdings,
// so an announcement costs the same whatever the number of partners viewing
// it. The zero Advert advertises nothing. Adverts compare equal when they
// view the same block.
type Advert struct {
	w *[advertWords]uint64
}

// Publish writes the map's current holdings into a's block and returns a,
// zeroing every bit word past the map's own. The zero a is given a fresh
// block, which is how a publisher starts an announcement nobody holding the
// previous one can see change. A map wider than MaxWindow panics.
func (m *BufferMap) Publish(a Advert) Advert {
	if len(m.bits) > advertWords-1 {
		panic(fmt.Sprintf("chunkstream: window %d past the advert's MaxWindow %d", m.window, MaxWindow))
	}
	if a.w == nil {
		a.w = new([advertWords]uint64)
	}
	a.w[0] = uint64(m.base)
	n := 1 + copy(a.w[1:], m.bits)
	clear(a.w[n:])
	return a
}

// Has reports whether the announcement lists id, exactly as the published
// map's Has did at Publish time: bits past the window are zero in a
// BufferMap, and Publish zeroes the words past the map's, so the block's
// width bounds the window well enough.
func (a Advert) Has(id ChunkID) bool {
	if a.w == nil {
		return false
	}
	off := uint64(id - ChunkID(a.w[0])) // below base wraps past every window
	if off >= MaxWindow {
		return false
	}
	return a.w[1+off/64]&(1<<(off%64)) != 0
}

// Clone returns an advert viewing a copy of a's block, which later rewrites
// of a leave unchanged. The zero Advert clones to itself.
func (a Advert) Clone() Advert {
	if a.w == nil {
		return a
	}
	w := *a.w
	return Advert{w: &w}
}

// Playout tracks in-order delivery to the decoder and accounts continuity:
// a chunk missing when its deadline passes is skipped and counted as a
// miss. The continuity index (delivered / due) is the QoE statistic used to
// sanity-check that an emulated swarm actually sustains the stream.
type Playout struct {
	next      ChunkID // next chunk the decoder needs
	delivered int64
	missed    int64
}

// NewPlayout starts the decoder wanting chunk first.
func NewPlayout(first ChunkID) *Playout { return &Playout{next: first} }

// Reset restarts the tracker at chunk first with zeroed continuity
// counters, reusing the allocation across join/leave episodes.
func (p *Playout) Reset(first ChunkID) { *p = Playout{next: first} }

// Next reports the chunk the decoder is waiting for.
func (p *Playout) Next() ChunkID { return p.next }

// CatchUp consumes chunks from the buffer map up to (and excluding)
// deadline: chunks present advance delivery; chunks absent once the
// deadline has passed them are skipped as misses.
func (p *Playout) CatchUp(m *BufferMap, deadline ChunkID) {
	for p.next < deadline {
		if m.Has(p.next) {
			p.delivered++
		} else {
			p.missed++
		}
		p.next++
	}
}

// Skip advances past the next chunk without charging a miss. Used during
// join warm-up, when a chunk was due before the peer had any chance to
// fetch it; counting those as misses would misreport steady-state quality.
func (p *Playout) Skip() { p.next++ }

// Delivered reports chunks played.
func (p *Playout) Delivered() int64 { return p.delivered }

// Missed reports chunks skipped.
func (p *Playout) Missed() int64 { return p.missed }

// Continuity reports delivered/(delivered+missed), 1.0 when nothing was due
// yet.
func (p *Playout) Continuity() float64 {
	due := p.delivered + p.missed
	if due == 0 {
		return 1
	}
	return float64(p.delivered) / float64(due)
}
