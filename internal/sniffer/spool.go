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

// Spool is a probe's capture together with the stage its records wait in.
// Records are computed ahead of simulation time (a chunk transfer scheduled
// at t materializes arrivals up to a second or so later) and a capture
// requires monotone timestamps, so records are staged as events emit them
// and handed to the capture time-sorted once they are final.
//
// Every emitter stamps a record at or after the instant of the event that
// stages it, so at instant now everything stamped before now is final. Add
// drains exactly that whenever the stage has doubled since the last drain
// left it (stageFloor at least): the stage holds what is in flight, not what
// a run has produced, and each record is re-sorted an amortised constant
// number of times. All records sharing a timestamp fall into one drain, so
// the drains together hand the capture one stable sort of the whole stream,
// however they are scheduled. DrainBefore drains the same way at an instant
// the caller chooses, Drain everything once a run has ended.
//
// Records wait in staged form: pointer-free and a third the size of a
// packet.Record, so appending, sorting and compacting them moves no pointer
// the collector must track. The staged form holds exactly what a binary
// trace holds (packet.Writer): IPv4 addresses and sizes in [0, 1<<31].
// Anything else is not a packet the emulation can have produced, and Add
// panics with the record named, as Capture.Observe does for foreign traffic.
type Spool struct {
	capture *Capture
	recs    []staged
	// kept is how many records the last drain left staged.
	kept int
}

// stageFloor is the stage length below which Add never drains: short stages
// are cheap to hold and sorting them often would not be.
const stageFloor = 256

// NewSpool builds an empty stage draining into c.
func NewSpool(c *Capture) *Spool { return &Spool{capture: c} }

// Capture reports the capture the stage drains into.
func (s *Spool) Capture() *Capture { return s.capture }

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

// Add stages one record emitted by an event executing at instant now, and
// drains what is final once the stage has doubled since the last drain.
func (s *Spool) Add(r packet.Record, now sim.Time) {
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
	if len(s.recs) >= max(stageFloor, 2*s.kept) {
		s.DrainBefore(now)
	}
}

// Len reports the number of staged records.
func (s *Spool) Len() int { return len(s.recs) }

// sortByTime orders the staged records by timestamp; stable, so
// same-instant records keep emission order.
func (s *Spool) sortByTime() {
	slices.SortStableFunc(s.recs, func(a, b staged) int { return cmp.Compare(a.ts, b.ts) })
}

// Drain feeds every staged record to the capture in timestamp order and
// empties the stage.
func (s *Spool) Drain() {
	s.sortByTime()
	for _, r := range s.recs {
		s.capture.Observe(r.record())
	}
	s.recs, s.kept = nil, 0
}

// DrainBefore feeds the capture only records with TS < cutoff, keeping later
// ones staged. Safe at any instant no record will be emitted behind.
func (s *Spool) DrainBefore(cutoff sim.Time) {
	s.sortByTime()
	i := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].ts >= int64(cutoff) })
	for _, r := range s.recs[:i] {
		s.capture.Observe(r.record())
	}
	s.recs = append(s.recs[:0], s.recs[i:]...)
	s.kept = len(s.recs)
}
