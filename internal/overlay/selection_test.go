package overlay

import (
	"math"
	"testing"
	"time"

	"napawine/internal/policy"
)

// TestPartnerIndexStaysConsistent drives a churning swarm and then audits
// every node's incremental indexes. This is the invariant the whole
// zero-alloc selection path leans on.
func TestPartnerIndexStaysConsistent(t *testing.T) {
	w := buildWorld(t, 5, 30, 3)
	w.startAll()
	w.eng.Run(60 * time.Second)

	for _, nd := range append(w.peers, w.src) {
		checkPartnerIndexes(t, nd)
	}
}

// checkPartnerIndexes audits one node's partner set: byID strictly
// ascending by id (which is what makes it a set and lets partnerByID binary
// search it), byReq a permutation of it ordered weight-descending with
// id-ascending ties, cached weights equal to a fresh evaluation, and
// partnerByID finding every entry while missing ids below, between and
// above them.
func checkPartnerIndexes(t *testing.T, nd *Node) {
	t.Helper()
	if len(nd.byReq) != len(nd.byID) {
		t.Fatalf("node %d: byReq holds %d entries, byID %d", nd.ID, len(nd.byReq), len(nd.byID))
	}
	inReq := make(map[*partner]int, len(nd.byReq))
	for _, en := range nd.byReq {
		inReq[en.p]++
	}
	byID := make(map[PeerID]*partner, len(nd.byID))
	for i, en := range nd.byID {
		p := en.p
		byID[en.id] = p
		if en.id != p.node.ID {
			t.Fatalf("node %d: byID entry carries id %d for partner %d", nd.ID, en.id, p.node.ID)
		}
		if i > 0 && nd.byID[i-1].id >= en.id {
			t.Fatalf("node %d: byID out of order at %d", nd.ID, i)
		}
		if inReq[p] != 1 {
			t.Fatalf("node %d: partner %d appears %d times in byReq", nd.ID, en.id, inReq[p])
		}
		wantReq, wantRet := policy.Score(nd.Profile.RequestWeight, nd.Profile.RetainWeight, p.info)
		if p.reqW != wantReq || p.retW != wantRet {
			t.Fatalf("node %d: partner %d cached weights (%v,%v) stale, want (%v,%v)",
				nd.ID, en.id, p.reqW, p.retW, wantReq, wantRet)
		}
	}
	// Every id from below the first node's to above the last's: a partner's
	// id finds that partner, any other misses.
	for id := PeerID(-1); id <= PeerID(len(nd.net.nodes)); id++ {
		if got := nd.partnerByID(id); got != byID[id] {
			t.Fatalf("node %d: partnerByID(%d) = %p, want %p", nd.ID, id, got, byID[id])
		}
	}
	for i, en := range nd.byReq {
		if en.w != en.p.reqW && !(math.IsNaN(en.w) && math.IsNaN(en.p.reqW)) {
			t.Fatalf("node %d: byReq entry %d inline weight %v, partner caches %v",
				nd.ID, i, en.w, en.p.reqW)
		}
		if en.id != en.p.node.ID {
			t.Fatalf("node %d: byReq entry carries id %d for partner %d", nd.ID, en.id, en.p.node.ID)
		}
		if i == 0 {
			continue
		}
		a := nd.byReq[i-1]
		if a.w < en.w || (a.w == en.w && a.id > en.id) {
			t.Fatalf("node %d: byReq out of order at %d: (%v,%d) before (%v,%d)",
				nd.ID, i, a.w, a.id, en.w, en.id)
		}
	}
}

// TestByReqInsertKeepsNaNWeightsInTail covers custom Weight
// implementations that can produce NaN (e.g. a Product of +Inf and 0
// factors): NaN entries must sink to an id-ordered tail and never strand
// later inserts behind them, or bestPartner's early exit would miss
// selectable partners.
func TestByReqInsertKeepsNaNWeightsInTail(t *testing.T) {
	w := buildWorld(t, 13, 4, 0)
	nd := w.peers[0]
	mk := func(id int, reqW float64) *partner {
		return &partner{node: w.peers[id], reqW: reqW}
	}
	nan := math.NaN()
	for _, p := range []*partner{mk(1, nan), mk(2, 5), mk(3, nan), mk(0, 9)} {
		nd.byReqInsert(p)
	}
	got := make([]float64, len(nd.byReq))
	for i, en := range nd.byReq {
		got[i] = en.w
	}
	if len(got) != 4 || got[0] != 9 || got[1] != 5 ||
		!math.IsNaN(got[2]) || !math.IsNaN(got[3]) {
		t.Fatalf("byReq order = %v, want [9 5 NaN NaN]", got)
	}
	if nd.byReq[2].id > nd.byReq[3].id {
		t.Error("NaN tail not id-ordered")
	}
	// bestPartner must reach the positive entries despite the NaNs.
	for _, en := range nd.byReq {
		en.p.node.online = true
	}
	if best := nd.bestPartner(); best == nil || best.reqW != 9 {
		t.Errorf("bestPartner = %v, want the weight-9 partner", best)
	}
	nd.byReq = nd.byReq[:0] // undo the synthetic index before teardown
}

// TestChunkStrategySwapChangesTraffic runs the same seed under the default
// and the deadline-first strategies: both must sustain the stream, and the
// traffic they generate must differ — proof the profile knob reaches the
// scheduler rather than being cosmetic.
func TestChunkStrategySwapChangesTraffic(t *testing.T) {
	run := func(strat policy.ChunkStrategy) (int64, float64) {
		w := buildWorld(t, 9, 24, 4)
		for _, nd := range append(w.peers, w.src) {
			nd.Profile.ChunkStrategy = strat
		}
		w.startAll()
		w.eng.Run(90 * time.Second)
		var video int64
		for _, v := range w.net.LedgerView().VideoRx {
			video += v
		}
		okCount := 0
		for _, p := range w.peers {
			if p.Continuity() > 0.7 {
				okCount++
			}
		}
		return video, float64(okCount) / float64(len(w.peers))
	}
	// buildWorld shares one profile pointer per call, so mutate per-world.
	defVideo, defOK := run(policy.DefaultStrategy())
	dlVideo, dlOK := run(policy.DeadlineFirst{})
	if defVideo == 0 || dlVideo == 0 {
		t.Fatalf("a strategy starved the swarm: default %d bytes, deadline %d bytes", defVideo, dlVideo)
	}
	if defOK < 0.5 || dlOK < 0.5 {
		t.Errorf("continuity collapsed: default %.2f, deadline %.2f ok-fraction", defOK, dlOK)
	}
	if defVideo == dlVideo {
		t.Error("deadline-first moved byte-identical video to urgent-random; strategy not reaching the scheduler")
	}
}

// TestRarestStrategySustainsSwarm exercises the holder-counting path end
// to end (the only strategy that reads ChunkRef.Holders).
func TestRarestStrategySustainsSwarm(t *testing.T) {
	w := buildWorld(t, 11, 24, 4)
	for _, nd := range append(w.peers, w.src) {
		nd.Profile.ChunkStrategy = policy.RarestFirst{}
	}
	w.startAll()
	w.eng.Run(90 * time.Second)
	var video int64
	for _, v := range w.net.LedgerView().VideoRx {
		video += v
	}
	if video == 0 {
		t.Fatal("rarest-first moved no video")
	}
}
