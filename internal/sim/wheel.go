package sim

import "math/bits"

// The event queue is a hierarchical timing wheel (calendar queue): O(1)
// amortized schedule and fire at any queue depth, where the former binary
// heap paid O(log n) per operation — a log factor that dominated the
// profile once swarms grew past ~10⁴ peers and millions of events sat
// pending at once.
//
// Layout. Virtual time is bucketed into ticks of 2^tickShift ns (~131 µs).
// Level 0 holds one slot per tick for the next levelSlots ticks; each
// higher level widens the slot span by levelSlots×, so eight levels of 64
// slots cover every representable instant. An event is filed at the lowest
// level whose current rotation contains its tick — equivalently, the level
// of the highest bit in which its tick differs from the cursor's. As the
// cursor reaches a higher-level slot, that slot spills: its events cascade
// down one or more levels (each event moves at most numLevels times over
// its whole life, which is the O(1) amortized bound).
//
// Storage. A slot is the head of a singly linked chain of fixed-size slabs,
// filled head first; every slab comes from, and goes back to, one free list
// the engine owns. The queue therefore holds about as many slabs as its
// peak number of pending events needs (plus one partly filled head per
// occupied slot), whichever slots those events sat in at the time, and the
// schedule path never regrows, copies or clears a block. Events carry no
// pointers (see event), so slabs cost the garbage collector one word each.
// Order inside a slot is never observable: cur re-orders whatever a spill
// hands it.
//
// Ordering. The engine's contract is exact (at, seq) order — same-instant
// events fire in scheduling order, and the golden-digest tests pin the
// resulting byte stream. Ticks are coarser than instants, so events of the
// tick being drained sit in `cur`, a small binary min-heap ordered by
// (at, seq). The heap stays shallow — it holds roughly one tick's worth of
// events (plus any scheduled at-or-behind the cursor after it overshot a
// run horizon) — so its log factor is over the per-tick population, not
// the whole queue.
//
// Invariants:
//   - every wheel event's tick is strictly greater than curTick, and lies
//     in its level's current rotation (it shares all bits above that level
//     with curTick);
//   - file routes anything at tick ≤ curTick into cur, so the heap head,
//     when present, is always the global minimum.
const (
	tickShift  = 17 // one tick = 2^17 ns ≈ 131 µs
	levelBits  = 6
	levelSlots = 1 << levelBits
	levelMask  = levelSlots - 1
	// numLevels×levelBits bits of tick index on top of tickShift cover
	// 17+48 = 65 ≥ 63 bits: the top level never wraps for any positive
	// instant, so no overflow list is needed.
	numLevels = 8
	// slabEvents fills the 1,024-byte size class: 16 bytes of header plus 25
	// events of 40. The only waste is the partly filled head of each
	// occupied slot, so the smallest slab holds the least: the benchmark's
	// seed-2 single-pplive run (1.5k peers) read a peak RSS of 19.2, 19.8,
	// 20.5 and 21.0 MB with slabs of 1, 2, 4 and 8 KB, and its swarm-10k
	// run (10⁴ peers) 40.2, 40.2, 40.9 and 41.0 MB, with wall times within
	// their spread (2-CPU Linux container). The header stays under 2 %.
	slabEvents = 25
)

// slab is one fixed-size block of a slot's chain. next comes first so that
// the pointer-bearing prefix the garbage collector scans is a single word.
type slab struct {
	next *slab
	n    int
	ev   [slabEvents]event
}

// enqueue queues r at instant t under the next sequence number, which must
// fit above the kind in event.order: number 2⁵⁶ panics rather than wrap.
func (e *Engine) enqueue(t Time, r Record) {
	e.seq++
	if e.seq>>(64-kindBits) != 0 {
		panic("sim: event sequence number reached 2^56, the most event.order holds")
	}
	e.file(&event{at: t, order: e.seq<<kindBits | uint64(r.Kind), node: r.Node, peer: r.Peer, a: r.A, b: r.B})
}

// file stores a copy of *ev: into the current-tick heap when its tick is at
// or behind the cursor, otherwise into the lowest wheel level whose current
// rotation contains it. (By pointer because 40 bytes copy faster as a block
// than as six arguments; ev is not retained.)
func (e *Engine) file(ev *event) {
	tk := int64(ev.at) >> tickShift
	if tk <= e.curTick {
		e.heapPush(ev)
		return
	}
	// The level is the highest differing bit between the event's tick and
	// the cursor's, in levelBits groups.
	lvl := (bits.Len64(uint64(tk^e.curTick)) - 1) / levelBits
	idx := (tk >> (levelBits * lvl)) & levelMask
	s := e.slots[lvl][idx]
	if s == nil || s.n == slabEvents {
		full := s
		if s = e.free; s != nil {
			e.free = s.next
		} else {
			s = new(slab)
		}
		s.next = full
		e.slots[lvl][idx] = s
	}
	s.ev[s.n] = *ev
	s.n++
	e.occ[lvl] |= 1 << uint(idx)
	e.wheelCount++
}

// advance moves the cursor to the next occupied slot — the one holding the
// queue's minimum tick, since level ranges are disjoint and ordered — and
// spills it. Reports false when the wheel holds nothing.
func (e *Engine) advance() bool {
	if e.wheelCount == 0 {
		return false
	}
	for lvl := 0; lvl < numLevels; lvl++ {
		shift := levelBits * lvl
		curIdx := uint((e.curTick >> shift) & levelMask)
		// Occupied slots strictly after the cursor's slot in this level's
		// rotation. The cursor's own slot is never occupied here: its
		// events live at a lower level (or in cur) by the filing rule.
		after := e.occ[lvl] & (^uint64(0) << (curIdx + 1))
		if after == 0 {
			continue
		}
		idx := int64(bits.TrailingZeros64(after))
		abs := (e.curTick>>shift)&^int64(levelMask) | idx
		e.curTick = abs << shift
		e.spill(lvl, idx)
		return true
	}
	panic("sim: wheel count positive but no occupied slot")
}

// spill drains one slot: its events re-file — into cur for the slot's first
// tick, into lower levels for the rest — and each slab joins the free list
// once it has been emptied. Re-filing never targets the slot being spilled
// (events land strictly below lvl, or in cur), and a slab is not on the free
// list while it is being read, so no event is overwritten before it is
// copied out.
func (e *Engine) spill(lvl int, idx int64) {
	s := e.slots[lvl][idx]
	e.slots[lvl][idx] = nil
	e.occ[lvl] &^= 1 << uint(idx)
	for s != nil {
		e.wheelCount -= s.n
		for i := 0; i < s.n; i++ {
			e.file(&s.ev[i])
		}
		next := s.next
		s.n = 0
		s.next = e.free
		e.free = s
		s = next
	}
}

// fillHead cascades wheel slots until the heap head is the queue's earliest
// event. Reports false when the queue is empty.
func (e *Engine) fillHead() bool {
	for len(e.cur) == 0 {
		if !e.advance() {
			return false
		}
	}
	return true
}

// releaseIfDrained frees the queue's memory once it is empty, so a
// flash-crowd spike's peak capacity is not pinned for the rest of a long
// study: the free slabs, the current-tick heap and the closure table all go.
func (e *Engine) releaseIfDrained() {
	if e.Pending() != 0 {
		return
	}
	e.cur = nil
	e.free = nil
	e.closures = nil
	e.freeClosure = -1
}

// less orders the current-tick heap by instant, then by scheduling order —
// the engine's same-instant FIFO guarantee.
func (e *Engine) less(i, j int) bool {
	a, b := &e.cur[i], &e.cur[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.order < b.order
}

func (e *Engine) heapPush(ev *event) {
	e.cur = append(e.cur, *ev)
	i := len(e.cur) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.cur[i], e.cur[parent] = e.cur[parent], e.cur[i]
		i = parent
	}
}

func (e *Engine) heapPop() event {
	h := e.cur
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.cur = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.less(r, l) {
			m = r
		}
		if !e.less(m, i) {
			break
		}
		e.cur[i], e.cur[m] = e.cur[m], e.cur[i]
		i = m
	}
	return top
}
