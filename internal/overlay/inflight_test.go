package overlay

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"napawine/internal/chunkstream"
	"napawine/internal/sim"
)

// TestInflightSet covers the scheduler's set of outstanding requests:
// lookup by id, removal by swapping the last entry in, and expiry reported
// in id order whatever order the entries sit in.
func TestInflightSet(t *testing.T) {
	const timeout = 4 * time.Second
	at := func(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }
	order := func(s inflightSet) []chunkstream.ChunkID {
		var ids []chunkstream.ChunkID
		for _, r := range s {
			ids = append(ids, r.chunk())
		}
		return ids
	}

	var s inflightSet
	if s.find(7) != -1 {
		t.Fatal("empty set finds an id")
	}
	for _, r := range []pendingReq{
		newRequest(0, 30, 1, at(5)),
		newRequest(0, 10, 2, at(1)),
		newRequest(0, 40, 3, at(0)),
		newRequest(0, 20, 4, at(1)),
	} {
		s = append(s, r)
	}
	if got := order(s); !slices.Equal(got, []chunkstream.ChunkID{30, 10, 40, 20}) {
		t.Fatalf("after inserts: %v", got)
	}
	for i, id := range []chunkstream.ChunkID{30, 10, 40, 20} {
		if s.find(id) != i {
			t.Errorf("find(%d) = %d, want %d", id, s.find(id), i)
		}
	}
	if s.find(15) != -1 {
		t.Error("find reports an id never put")
	}

	// Sent at 5, 1, 0, 1; at now = 4.5 s everything sent before 0.5 s is
	// stale — nothing at exactly the timeout — and at 5.5 s everything before
	// 1.5 s, listed ascending over whatever dst held.
	if got := s.expiredInto(nil, at(4), timeout); len(got) != 0 {
		t.Errorf("a request exactly the timeout old expired: %v", got)
	}
	now := at(5).Add(500 * time.Millisecond)
	got := s.expiredInto([]chunkstream.ChunkID{99, 98, 97, 96}, now, timeout)
	if !slices.Equal(got, []chunkstream.ChunkID{10, 20, 40}) {
		t.Errorf("expired = %v, want [10 20 40]", got)
	}

	// Swap-remove: the last entry fills the hole; removing the last entry
	// just shrinks.
	s.removeAt(s.find(30))
	if got := order(s); !slices.Equal(got, []chunkstream.ChunkID{20, 10, 40}) {
		t.Fatalf("after removing the first: %v", got)
	}
	s.removeAt(s.find(40))
	if got := order(s); !slices.Equal(got, []chunkstream.ChunkID{20, 10}) {
		t.Fatalf("after removing the last: %v", got)
	}
	s.removeAt(0)
	s.removeAt(0)
	if len(s) != 0 || s.find(10) != -1 {
		t.Fatalf("emptied set: %v", s)
	}
}

// TestRequestRecordIsSixteenBytes: a request record is 16 bytes, so the
// shipped sets fill their size classes (six records PPLive's 96 bytes, five
// SopCast's and TVAnts' 80) and hold no pointer.
func TestRequestRecordIsSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(pendingReq{}); size != 16 {
		t.Errorf("pendingReq is %d bytes, want 16", size)
	}
	if got := pointerWords(reflect.TypeOf(pendingReq{})); got != 0 {
		t.Errorf("pendingReq holds %d pointer words, want none", got)
	}
}

// TestRequestPanicsRatherThanWrap: a record keeps the chunk ids of
// [0, 2³¹ − 1] exactly, and a chunk id outside them panics, naming the node,
// rather than wrapping into another chunk's request.
func TestRequestPanicsRatherThanWrap(t *testing.T) {
	for _, id := range []chunkstream.ChunkID{0, 1, math.MaxInt32} {
		if r := newRequest(7, id, 3, 0); r.chunk() != id || r.from != 3 {
			t.Errorf("chunk %d from 3 reads back as chunk %d from %d", id, r.chunk(), r.from)
		}
	}
	for _, id := range []chunkstream.ChunkID{-1, math.MaxInt32 + 1, math.MaxInt64} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("node 7 requests chunk %d", id); !strings.Contains(msg, want) {
					t.Errorf("chunk %d: panic %q, want one naming %q", id, msg, want)
				}
			}()
			newRequest(7, id, 3, 0)
		}()
	}
}

// FuzzInflightSet drives a node's set of outstanding requests against a map
// model. The first argument bounds the set at 1 to 8 requests; each op is
// then three bytes: what, a chunk id (one of 16, so ids recur) and an
// argument. The clock moves on a second per op. what%4 picks: 0 and 1 request
// the chunk from the peer the argument names if it is not outstanding and the
// set has room, as the scheduler does (find, then append); 2 removes the
// chunk's request if there is one, as a delivery does (find, then removeAt);
// 3 expires every request older than argument%8 seconds, as scheduleTick
// does: expiredInto must list exactly the model's expired ids, ascending,
// over whatever its buffer held, and each is then found and removed. After
// every op the set passes check and find places each of the model's requests,
// unchanged, and misses every other id.
func FuzzInflightSet(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 7, 1, 2, 8, 0, 1, 9, 0, 3, 1, 2, 2, 0, 0, 4, 2, 0, 5, 3, 0, 6, 4, 3, 0, 2, 0, 1, 5, 3, 0, 0, 2, 9, 0})
	f.Add(uint8(0), []byte{0, 5, 1, 0, 6, 1, 3, 0, 0, 0, 6, 2, 2, 6, 0, 3, 0, 7, 0, 6, 3, 4, 6, 1})
	f.Add(uint8(7), []byte{0, 15, 1, 0, 14, 1, 1, 13, 1, 0, 12, 1, 0, 11, 1, 0, 10, 1, 0, 9, 1, 0, 8, 1, 0, 7, 1, 3, 0, 3, 0, 31, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, limit uint8, ops []byte) {
		limit = 1 + limit%8
		var s inflightSet
		model := make(map[chunkstream.ChunkID]pendingReq)
		var expired []chunkstream.ChunkID
		for step := 0; step+3 <= len(ops); step += 3 {
			what, id, arg := ops[step]%4, chunkstream.ChunkID(ops[step+1]%16), ops[step+2]
			now := sim.Time(time.Duration(step/3) * time.Second)
			switch what {
			case 0, 1:
				if s.find(id) < 0 && len(s) < int(limit) {
					r := newRequest(0, id, PeerID(arg), now)
					s = append(s, r)
					model[id] = r
				}
			case 2:
				if i := s.find(id); i >= 0 {
					s.removeAt(i)
				}
				delete(model, id)
			default:
				timeout := time.Duration(arg%8) * time.Second
				expired = s.expiredInto(expired, now, timeout)
				var want []chunkstream.ChunkID
				for id, r := range model {
					if now.Sub(r.sentAt) > timeout {
						want = append(want, id)
					}
				}
				slices.Sort(want)
				if !slices.Equal(expired, want) {
					t.Fatalf("step %d: expired %v after %v, the model %v", step/3, expired, timeout, want)
				}
				for _, id := range expired {
					s.removeAt(s.find(id))
					delete(model, id)
				}
			}
			if err := s.check(int(limit)); err != nil {
				t.Fatalf("step %d: %v", step/3, err)
			}
			if len(s) != len(model) {
				t.Fatalf("step %d: %d requests, the model %d", step/3, len(s), len(model))
			}
			for id := range chunkstream.ChunkID(16) {
				i := s.find(id)
				if r, ok := model[id]; ok != (i >= 0) || ok && s[i] != r {
					t.Fatalf("step %d: find(%d) = %d in %v, the model holds %+v", step/3, id, i, s, r)
				}
			}
		}
	})
}
