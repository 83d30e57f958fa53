package sniffer

import (
	"cmp"
	"slices"
	"sort"

	"napawine/internal/packet"
)

// Spool is a staging buffer for records whose timestamps are computed ahead
// of simulation time (a chunk transfer scheduled at t materializes arrivals
// up to t+seconds in the future). Captures require monotone timestamps, so
// the overlay spools records during the run and drains them — time-sorted —
// once the run ends.
type Spool struct {
	recs []packet.Record
}

// Add stages one record.
func (s *Spool) Add(r packet.Record) { s.recs = append(s.recs, r) }

// Len reports the number of staged records.
func (s *Spool) Len() int { return len(s.recs) }

// sortByTime orders the staged records by timestamp; stable, so
// same-instant records keep emission order.
func (s *Spool) sortByTime() {
	slices.SortStableFunc(s.recs, func(a, b packet.Record) int { return cmp.Compare(a.TS, b.TS) })
}

// Drain sorts the staged records by timestamp and feeds them to the
// capture, then empties the spool.
func (s *Spool) Drain(c *Capture) {
	s.sortByTime()
	for _, r := range s.recs {
		c.Observe(r)
	}
	s.recs = nil
}

// DrainBefore feeds only records with TS < cutoff, keeping later ones
// staged. It lets long experiments flush periodically, bounding spool
// memory while preserving capture monotonicity.
func (s *Spool) DrainBefore(c *Capture, cutoff int64) {
	s.sortByTime()
	i := sort.Search(len(s.recs), func(i int) bool { return int64(s.recs[i].TS) >= cutoff })
	for _, r := range s.recs[:i] {
		c.Observe(r)
	}
	s.recs = append(s.recs[:0], s.recs[i:]...)
}
