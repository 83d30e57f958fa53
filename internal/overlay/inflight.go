package overlay

import (
	"fmt"
	"slices"
	"time"

	"napawine/internal/chunkstream"
	"napawine/internal/sim"
)

// pendingReq tracks one outstanding chunk request.
type pendingReq struct {
	id     chunkstream.ChunkID
	from   PeerID
	sentAt sim.Time
}

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
		if s[i].id == id {
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
			dst = append(dst, s[i].id)
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
		if j := s[:i].find(s[i].id); j >= 0 {
			return fmt.Errorf("chunk %d requested twice, at %d and %d", s[i].id, j, i)
		}
	}
	return nil
}
