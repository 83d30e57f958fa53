package overlay

import (
	"fmt"
	"math"
	"slices"
	"time"

	"napawine/internal/chunkstream"
	"napawine/internal/sim"
)

// pendingReq tracks one outstanding chunk request: a 16-byte record, so a
// six-entry set fills the 96-byte size class and a five-entry set the 80-byte
// one. The chunk id is held in 32 bits; every record is built by newRequest,
// which panics rather than wrap an id past 2³¹ − 1, and read through chunk.
type pendingReq struct {
	sentAt sim.Time
	id     int32
	from   PeerID
}

// newRequest is node self's record of a request for chunk id sent to peer
// from at instant at. A chunk id outside [0, 2³¹ − 1] panics, naming the node:
// at the calendar's chunk rate that is decades of virtual time, so no run
// reaches it.
func newRequest(self PeerID, id chunkstream.ChunkID, from PeerID, at sim.Time) pendingReq {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("overlay: node %d requests chunk %d, outside the 31 bits a request record holds", self, id))
	}
	return pendingReq{sentAt: at, id: int32(id), from: from}
}

// chunk is the requested chunk's id.
func (r pendingReq) chunk() chunkstream.ChunkID { return chunkstream.ChunkID(r.id) }

// inflightSet is a node's outstanding requests, at most one per chunk id and
// at most Profile.MaxInflight (five or six) of them: an unordered slice
// scanned linearly, which at that size beats hashing on every one of the
// ~20 probes a scheduler tick makes. A request is appended only for an id
// find has just reported absent (or removeAt has just removed). Order is
// never observable — expiry sorts what it collects before acting on it.
type inflightSet []pendingReq

// find returns the index of id's request, -1 when there is none.
func (s inflightSet) find(id chunkstream.ChunkID) int {
	for i := range s {
		if s[i].chunk() == id {
			return i
		}
	}
	return -1
}

// removeAt drops the request at index i by moving the last one into its place.
func (s *inflightSet) removeAt(i int) {
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	*s = (*s)[:last]
}

// expiredInto overwrites dst with the ids of requests sent more than timeout
// before now, ascending, and returns it.
func (s inflightSet) expiredInto(dst []chunkstream.ChunkID, now sim.Time, timeout time.Duration) []chunkstream.ChunkID {
	dst = dst[:0]
	for i := range s {
		if now.Sub(s[i].sentAt) > timeout {
			dst = append(dst, s[i].chunk())
		}
	}
	slices.Sort(dst)
	return dst
}

// check reports the first broken rule of the set under bound limit
// (Profile.MaxInflight), nil when none. Only tests call it.
func (s inflightSet) check(limit int) error {
	for i := range s {
		if i >= limit {
			return fmt.Errorf("%d requests outstanding, at most %d allowed", len(s), limit)
		}
		if j := s[:i].find(s[i].chunk()); j >= 0 {
			return fmt.Errorf("chunk %d requested twice, at %d and %d", s[i].id, j, i)
		}
	}
	return nil
}
