package overlay

import (
	"testing"
	"time"
	"unsafe"

	"napawine/internal/sim"
)

// TestNodeHotHeaderFitsOneLine pins the layout the partner walk relies on:
// everything a tick reads of somebody else's node — shard, spool, id, source
// and online flags — ends within the node's first 32 bytes. Node's size class
// (320 bytes) aligns objects to 64, so those bytes never straddle a cache
// line.
func TestNodeHotHeaderFitsOneLine(t *testing.T) {
	var nd Node
	if size := unsafe.Sizeof(nd); size > 320 {
		t.Errorf("Node is %d bytes, past the 320-byte size class", size)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"sc", unsafe.Offsetof(nd.sc) + unsafe.Sizeof(nd.sc)},
		{"spool", unsafe.Offsetof(nd.spool) + unsafe.Sizeof(nd.spool)},
		{"ID", unsafe.Offsetof(nd.ID) + unsafe.Sizeof(nd.ID)},
		{"isSource", unsafe.Offsetof(nd.isSource) + unsafe.Sizeof(nd.isSource)},
		{"online", unsafe.Offsetof(nd.online) + unsafe.Sizeof(nd.online)},
	} {
		if f.end > 32 {
			t.Errorf("Node.%s ends at byte %d, outside the 32-byte hot header", f.name, f.end)
		}
	}
}

// TestStaleTicksFireOnceAndDoNothing covers the tick contract across a
// leave-and-rejoin that beats the old session's ticks to their instant: each
// of the four orphaned ticks still fires, exactly once, is counted, draws no
// randomness and posts nothing; the new session's ticks then run at their own
// cadence as if the old ones had never been. The node is alone in its world
// and its four activities share the scheduler's interval, so its ticks are
// the only events there are and a session's four are due together.
func TestStaleTicksFireOnceAndDoNothing(t *testing.T) {
	const interval, lead = scheduleInterval, scheduleInterval / 5
	dance := func() (*world, *Node) {
		w := buildWorld(t, 3, 1, 0)
		nd := w.peers[0]
		prof := *nd.Profile
		prof.SignalingInterval, prof.ContactInterval, prof.DropInterval = interval, interval, interval
		nd.Profile = &prof
		nd.Join()
		w.eng.Run(lead)
		nd.Leave()
		nd.Join()
		return w, nd
	}
	w, nd := dance()
	twin, _ := dance() // same seed, same steps: the RNG position to compare with

	type firing struct {
		kind sim.Kind
		at   sim.Time
	}
	var fired []firing
	w.eng.SetDispatch(func(r sim.Record) {
		fired = append(fired, firing{r.Kind, w.eng.Now()})
		w.net.dispatch(r)
	})

	if got := w.eng.Pending(); got != 8 {
		t.Fatalf("Pending = %d after the rejoin, want 4 stale + 4 fresh ticks", got)
	}
	processed := w.eng.Processed()
	w.eng.Run(interval) // the old session's four ticks, and nothing else
	if len(fired) != 4 || w.eng.Processed() != processed+4 {
		t.Fatalf("%d records fired, Processed +%d, want the 4 stale ticks", len(fired), w.eng.Processed()-processed)
	}
	if got := w.eng.Pending(); got != 4 {
		t.Errorf("Pending = %d after the stale ticks, want 4: a stale tick posted a successor", got)
	}
	if a, b := w.eng.Rand().Int63(), twin.eng.Rand().Int63(); a != b {
		t.Errorf("a stale tick drew from the RNG: next draw %d, untouched twin %d", a, b)
	}

	// The new session: first ticks one interval after the rejoin, successors
	// between 1 and 1.25 intervals apart, one chain per kind.
	fired = fired[:0]
	w.eng.Run(lead + 5*interval)
	last := map[sim.Kind]sim.Time{}
	count := map[sim.Kind]int{}
	for _, f := range fired {
		prev, seen := last[f.kind]
		switch gap := f.at.Sub(prev); {
		case !seen && f.at != sim.Time(lead+interval):
			t.Errorf("kind %d first fired at %v, want %v", f.kind, f.at, lead+interval)
		case seen && (gap < interval || gap >= interval+interval/4):
			t.Errorf("kind %d fired %v after its predecessor, want [%v, %v)", f.kind, gap, interval, interval+interval/4)
		}
		last[f.kind] = f.at
		count[f.kind]++
	}
	for kind := evSignaling; kind <= evChurn; kind++ {
		if count[kind] < 4 {
			t.Errorf("kind %d fired %d times in five intervals", kind, count[kind])
		}
	}
	if !nd.Online() || w.eng.Pending() != 4 {
		t.Errorf("online %v, Pending %d: want a live session with one pending tick per kind", nd.Online(), w.eng.Pending())
	}
}

// TestChunkRoundTripAllocatesNothing: once the queue is warm, a chunk
// request, its serve event at the responder and its delivery event at the
// requester are three calls and two records — no closure, no slab, no slice
// growth.
func TestChunkRoundTripAllocatesNothing(t *testing.T) {
	w := buildWorld(t, 5, 1, 0)
	peer := w.peers[0]
	w.startAll()
	w.eng.Run(30 * time.Second)
	if peer.partnerByID(w.src.ID) == nil {
		t.Fatal("warm-up did not partner the peer with the source")
	}
	// End both sessions' tick chains without taking the nodes offline, and
	// drain with Step, which keeps the queue's capacity.
	peer.epoch++
	w.src.epoch++
	for w.eng.Step() {
	}
	id := w.net.Cfg.Calendar.LatestAt(w.eng.Now())
	served := w.net.LedgerView().ChunksServedTotal
	const rounds = 200
	allocs := testing.AllocsPerRun(rounds, func() {
		peer.inflight = append(peer.inflight, newRequest(peer.ID, id, w.src.ID, w.eng.Now()))
		w.net.sendRequest(peer, w.src, id)
		for w.eng.Step() {
		}
	})
	if got := w.net.LedgerView().ChunksServedTotal - served; got != rounds+1 { // AllocsPerRun warms up once
		t.Fatalf("%d chunks served in %d round trips", got, rounds+1)
	}
	if len(peer.inflight) != 0 {
		t.Errorf("%d requests left pending: deliveries did not settle them", len(peer.inflight))
	}
	if allocs != 0 {
		t.Errorf("request → serve → deliver allocates %v times per round trip, want 0", allocs)
	}
}

// TestChurnCycleAllocatesNothing: once a node's hot state exists, a churn
// cycle is records on a warm queue. ScheduleChurn and a full arrive → depart
// → arrive cycle allocate nothing but what a session always allocates, its
// advert, published by the session's first signalling tick. The node is
// alone in its world; its means sit far below the one-second floor, so
// every holding time is exactly a second, and only signalling and scheduler
// ticks fall inside a session.
func TestChurnCycleAllocatesNothing(t *testing.T) {
	w := buildWorld(t, 3, 1, 0)
	nd := w.peers[0]
	prof := *nd.Profile
	prof.SignalingInterval = 600 * time.Millisecond
	prof.ContactInterval, prof.DropInterval = time.Minute, time.Minute
	nd.Profile = &prof
	churn := 0
	w.eng.SetDispatch(func(r sim.Record) {
		if r.Kind == evArrive || r.Kind == evDepart {
			churn++
		}
		w.net.dispatch(r)
	})
	cycle := func() {
		nd.ScheduleChurn(0, time.Millisecond, time.Millisecond)
		for start := churn; churn-start < 3; {
			w.eng.Step()
		}
		if !nd.Online() {
			t.Fatal("the cycle's second arrival left the node offline")
		}
		// Retiring ends the chain at its pending departure; drain with Step,
		// which keeps the queue's capacity.
		nd.Retire()
		for w.eng.Step() {
		}
		nd.retired = false
	}
	cycle() // the node's hot state and the queue's slabs
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
		t.Errorf("a churn cycle allocates %v times, want 1: the first session's advert", allocs)
	}
	if got := w.eng.Processed(); got == 0 || w.eng.Pending() != 0 {
		t.Errorf("Processed %d, Pending %d after the cycles", got, w.eng.Pending())
	}
}
