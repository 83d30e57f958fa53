package sniffer

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/units"
)

// Spool is a staging buffer for records whose timestamps are computed ahead
// of simulation time (a chunk transfer scheduled at t materializes arrivals
// up to t+seconds in the future). Captures require monotone timestamps, so
// the overlay spools records as events emit them and the run flushes the
// spool every few virtual seconds (DrainBefore: everything stamped before
// "now" is final) and once more when it ends (Drain), time-sorted each time.
//
// Records wait in staged form: pointer-free and a third the size of a
// packet.Record, so appending, sorting and compacting them moves no pointer
// the collector must track. The staged form holds exactly what a binary
// trace holds (packet.Writer): IPv4 addresses and sizes in [0, 1<<31].
// Anything else is not a packet the emulation can have produced, and Add
// panics with the record named, as Capture.Observe does for foreign traffic.
type Spool struct {
	recs []staged
}

// staged is a packet.Record as it waits in the spool.
type staged struct {
	ts       int64
	src, dst [4]byte
	size     uint32
	ttl      uint8
	kind     packet.Kind
}

// record rebuilds the packet.Record that was staged.
func (s staged) record() packet.Record {
	return packet.Record{
		TS:   sim.Time(s.ts),
		Src:  netip.AddrFrom4(s.src),
		Dst:  netip.AddrFrom4(s.dst),
		Size: units.ByteSize(s.size),
		TTL:  s.ttl,
		Kind: s.kind,
	}
}

// Add stages one record.
func (s *Spool) Add(r packet.Record) {
	if !r.Src.Is4() || !r.Dst.Is4() {
		panic(fmt.Sprintf("sniffer: spooled record addresses must be IPv4: %+v", r))
	}
	if r.Size < 0 || r.Size > 1<<31 {
		panic(fmt.Sprintf("sniffer: spooled record size out of range: %+v", r))
	}
	s.recs = append(s.recs, staged{
		ts: int64(r.TS), src: r.Src.As4(), dst: r.Dst.As4(),
		size: uint32(r.Size), ttl: r.TTL, kind: r.Kind,
	})
}

// Len reports the number of staged records.
func (s *Spool) Len() int { return len(s.recs) }

// sortByTime orders the staged records by timestamp; stable, so
// same-instant records keep emission order.
func (s *Spool) sortByTime() {
	slices.SortStableFunc(s.recs, func(a, b staged) int { return cmp.Compare(a.ts, b.ts) })
}

// Drain sorts the staged records by timestamp and feeds them to the
// capture, then empties the spool.
func (s *Spool) Drain(c *Capture) {
	s.sortByTime()
	for _, r := range s.recs {
		c.Observe(r.record())
	}
	s.recs = nil
}

// DrainBefore feeds only records with TS < cutoff, keeping later ones
// staged. It lets long experiments flush periodically, bounding spool
// memory while preserving capture monotonicity.
func (s *Spool) DrainBefore(c *Capture, cutoff int64) {
	s.sortByTime()
	i := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].ts >= cutoff })
	for _, r := range s.recs[:i] {
		c.Observe(r.record())
	}
	s.recs = append(s.recs[:0], s.recs[i:]...)
}
