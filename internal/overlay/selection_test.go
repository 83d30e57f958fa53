package overlay

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"napawine/internal/access"
	"napawine/internal/policy"
	"napawine/internal/units"
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

// reqBefore is the weight-ordered index's order on (weight, id) pairs: real
// weights descending, then ids ascending; NaN weights after every real one,
// by id.
func reqBefore(aw float64, aid PeerID, bw float64, bid PeerID) bool {
	switch an, bn := math.IsNaN(aw), math.IsNaN(bw); {
	case an != bn:
		return bn
	case !an && aw != bw:
		return aw > bw
	default:
		return aid < bid
	}
}

// sameWeight compares weights with NaN equal to NaN.
func sameWeight(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// checkPartnerIndexes audits one node's partner table and its two indexes:
//   - the table is allocated at MaxPartners, and the congestion side table
//     exists exactly when the congestion model is on;
//   - byID ids strictly ascend, which is what makes it a set and lets
//     partnerByID binary search it;
//   - byReq holds exactly byID's (id, slot) pairs, in the order of the
//     request weights the slots hold;
//   - every slot an index names is live — it holds that id's node and a
//     cached request weight equal to a fresh evaluation — and each index
//     names it once;
//   - the free list covers exactly the unreferenced slots below len, and a
//     free slot holds nothing but its link;
//   - partnerByID finds every partner and misses ids below, between and above.
func checkPartnerIndexes(t testing.TB, nd *Node) {
	t.Helper()
	if nd.partners == nil {
		if len(nd.byID)+len(nd.byReq) != 0 || nd.cong != nil {
			t.Fatalf("node %d: indexes or a congestion table without a partner table", nd.ID)
		}
		return
	}
	if cap(nd.partners) != nd.Profile.MaxPartners {
		t.Fatalf("node %d: partner table capacity %d, MaxPartners %d", nd.ID, cap(nd.partners), nd.Profile.MaxPartners)
	}
	if on := nd.net.congestionOn(); (nd.cong != nil) != on || on && len(*nd.cong) != nd.Profile.MaxPartners {
		t.Fatalf("node %d: congestion table %v with the congestion model on: %v", nd.ID, nd.cong != nil, on)
	}
	if len(nd.byReq) != len(nd.byID) {
		t.Fatalf("node %d: byReq holds %d entries, byID %d", nd.ID, len(nd.byReq), len(nd.byID))
	}
	referenced := make([]bool, len(nd.partners))
	pairs := make(map[idEntry]bool, len(nd.byID))
	for i, en := range nd.byID {
		if i > 0 && nd.byID[i-1].id >= en.id {
			t.Fatalf("node %d: byID out of order at %d", nd.ID, i)
		}
		if en.slot < 0 || int(en.slot) >= len(nd.partners) || referenced[en.slot] {
			t.Fatalf("node %d: byID names slot %d of %d for partner %d, or names it twice", nd.ID, en.slot, len(nd.partners), en.id)
		}
		referenced[en.slot] = true
		pairs[en] = true
		p := &nd.partners[en.slot]
		if p.node == nil || p.node.ID != en.id {
			t.Fatalf("node %d: slot %d does not hold partner %d", nd.ID, en.slot, en.id)
		}
		if want := nd.Profile.RequestWeight.Weight(p.info()); !sameWeight(p.reqW, want) {
			t.Fatalf("node %d: partner %d cached request weight %v stale, want %v", nd.ID, en.id, p.reqW, want)
		}
	}
	for i, en := range nd.byReq {
		pair := idEntry{id: en.id, slot: en.slot}
		if !pairs[pair] {
			t.Fatalf("node %d: byReq entry %d names (%d, slot %d), which byID does not, or names it twice", nd.ID, i, en.id, en.slot)
		}
		delete(pairs, pair)
		if i == 0 {
			continue
		}
		a := nd.byReq[i-1]
		if aw, w := nd.partners[a.slot].reqW, nd.partners[en.slot].reqW; !reqBefore(aw, a.id, w, en.id) {
			t.Fatalf("node %d: byReq out of order at %d: (%v,%d) before (%v,%d)", nd.ID, i, aw, a.id, w, en.id)
		}
	}
	free := 0
	for f := nd.freeSlot; f != 0; f = int16(nd.partners[f-1].rtt) {
		s := int(f - 1)
		if s < 0 || s >= len(nd.partners) || referenced[s] {
			t.Fatalf("node %d: free list reaches slot %d of %d, referenced or out of the table, or twice", nd.ID, s, len(nd.partners))
		}
		referenced[s] = true
		if p := nd.partners[s]; p.node != nil || p.have != nil || p.reqW != 0 ||
			p.estRate != 0 || p.failures != 0 || p.loc != 0 || p.announce {
			t.Fatalf("node %d: free slot %d holds more than its link", nd.ID, s)
		}
		free++
	}
	if free+len(nd.byID) != len(nd.partners) {
		t.Fatalf("node %d: %d free and %d live slots in a table of %d", nd.ID, free, len(nd.byID), len(nd.partners))
	}
	// Every id from below the first node's to above the last's: a partner's
	// id finds that partner's slot, any other misses.
	for id := PeerID(-1); id <= PeerID(len(nd.net.nodes)); id++ {
		got := nd.partnerByID(id)
		i, ok := nd.byIDSearch(id)
		if ok != (got != nil) || ok && got != &nd.partners[nd.byID[i].slot] {
			t.Fatalf("node %d: partnerByID(%d) = %p, listed: %v", nd.ID, id, got, ok)
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
	nd.partners = make([]partner, 0, nd.Profile.MaxPartners)
	nan := math.NaN()
	for _, r := range []struct {
		peer int
		reqW float64
	}{{1, nan}, {2, 5}, {3, nan}, {0, 9}} {
		s := nd.takeSlot()
		nd.partners[s] = partner{node: w.peers[r.peer], reqW: r.reqW}
		nd.byReqInsert(w.peers[r.peer].ID, s)
	}
	got := make([]float64, len(nd.byReq))
	for i, en := range nd.byReq {
		got[i] = nd.partners[en.slot].reqW
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
		nd.partners[en.slot].node.online = true
	}
	if best := nd.bestPartner(); best == nil || best.reqW != 9 {
		t.Errorf("bestPartner = %v, want the weight-9 partner", best)
	}
	nd.byReq, nd.partners = nil, nil // undo the synthetic table before teardown
}

// TestPartnerTableShape pins what the table was built for: a 56-byte record,
// 8-byte index entries, and no pointer in either index or in the
// request round's scratch, so the collector scans none of them and shifting
// an entry costs no write barrier. TestNodeHotHeaderFitsOneLine holds Node to
// its size class with the table in it.
func TestPartnerTableShape(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"partner", unsafe.Sizeof(partner{}), 56},
		{"idEntry", unsafe.Sizeof(idEntry{}), 8},
		{"reqEntry", unsafe.Sizeof(reqEntry{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	for _, ty := range []reflect.Type{
		reflect.TypeOf(idEntry{}),
		reflect.TypeOf(reqEntry{}),
		reflect.TypeOf(shardCtx{}.reqOrder).Elem(),
	} {
		if at := pointerIn(ty); at != "" {
			t.Errorf("%v holds a pointer: %s", ty, at)
		}
	}
}

// TestPartnerRecordPacksInfo: the packed record gives back every Info a
// partnership can form with, and an RTT the record cannot hold panics at
// formation, naming both peers, instead of being truncated.
func TestPartnerRecordPacksInfo(t *testing.T) {
	other := &Node{ID: 7}
	for loc := range 8 {
		for _, rtt := range []time.Duration{0, 37 * time.Millisecond, math.MaxInt32} {
			info := policy.Info{
				SameSubnet: loc&1 != 0, SameAS: loc&2 != 0, SameCC: loc&4 != 0,
				RTT: rtt, EstRate: units.BitRate(loc) * units.Mbps,
			}
			p := partner{node: other}
			p.pack(info, 3)
			if got := p.info(); got != info {
				t.Errorf("packed %+v, unpacked %+v", info, got)
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "peers 3 and 7") {
			t.Errorf("an RTT past 32 bits of nanoseconds: panic %q, want one naming peers 3 and 7", msg)
		}
	}()
	p := partner{node: other}
	p.pack(policy.Info{RTT: math.MaxInt32 + 1}, 3)
}

// pointerIn names where a value of type ty holds something the collector
// scans, "" when nowhere.
func pointerIn(ty reflect.Type) string {
	switch ty.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return ty.String()
	case reflect.Array:
		if ty.Len() > 0 {
			if at := pointerIn(ty.Elem()); at != "" {
				return "element " + at
			}
		}
	case reflect.Struct:
		for i := range ty.NumField() {
			if at := pointerIn(ty.Field(i).Type); at != "" {
				return ty.Field(i).Name + " " + at
			}
		}
	}
	return ""
}

// TestPartnerTableNeverMoves runs a flash crowd of flapping peers under the
// congestion model — partner adds, drops, backoffs and whole-table clears all
// the time — and requires every node's partner table and congestion table to
// stay where its first Join put them, at MaxPartners, with the indexes sound
// at every second.
func TestPartnerTableNeverMoves(t *testing.T) {
	cfg := testConfig()
	cfg.Congestion = access.CongestionModel{QueueDepth: 2}
	w := buildWorldCfg(t, 17, 40, 3, cfg)
	w.src.ScheduleJoin(0)
	for i, p := range w.peers {
		p.ScheduleChurn(time.Duration(i)*25*time.Millisecond, 8*time.Second, 2*time.Second)
	}
	type tables struct {
		partners *partner
		cong     *partnerCong
	}
	first := make(map[*Node]tables)
	full := 0
	for sec := 1; sec <= 60; sec++ {
		w.eng.Run(time.Duration(sec) * time.Second)
		for _, nd := range append(w.peers, w.src) {
			if nd.partners == nil {
				continue
			}
			checkPartnerIndexes(t, nd)
			now := tables{unsafe.SliceData(nd.partners), &(*nd.cong)[0]}
			if was, ok := first[nd]; ok && was != now {
				t.Fatalf("second %d: node %d's tables moved from %v to %v", sec, nd.ID, was, now)
			}
			first[nd] = now
			if len(nd.partners) == cap(nd.partners) {
				full++
			}
		}
	}
	var sessions int64
	for _, p := range w.peers {
		sessions += p.epoch
	}
	backoffs := w.net.LedgerView().BackoffsTotal
	t.Logf("%d sessions ended, %d backoffs, a full table seen %d times", sessions, backoffs, full)
	if len(first) != len(w.peers)+1 || sessions < int64(len(w.peers)) || backoffs == 0 || full == 0 {
		t.Errorf("%d of %d nodes joined, %d sessions ended, %d backoffs, %d full-table sightings: the run did not churn the tables",
			len(first), len(w.peers)+1, sessions, backoffs, full)
	}
}

// tableWeight reads a weight straight off the delivery-rate estimate, so a
// test sets a partner's weight by setting its rate: the rate's residue
// modulo 5 for residues 0 to 3, NaN for 4 — ties and NaNs all the time.
type tableWeight struct{}

func (tableWeight) Weight(i policy.Info) float64 {
	if r := i.EstRate % 5; r != 4 {
		return float64(r)
	}
	return math.NaN()
}

func (tableWeight) Name() string { return "table" }

// tableModel is a partner table as plain data: each partner's rate and slot,
// the free slots as a stack with the last one freed on top, and the table's
// length.
type tableModel struct {
	rows map[PeerID]tableRow
	free []int32
	n    int
}

type tableRow struct {
	rate units.BitRate
	slot int32
}

// tableCoverage counts what a checked sequence exercised.
type tableCoverage struct {
	adds, dups, removes, rescores, leaves int
	reused, full, nanTails                int // nanTails: NaN weights queued behind real ones
}

// checkTableMatchesModel runs one node's partner table through ops, two
// bytes a step (what, whom; what 255 is a leave and rejoin, which empties the
// table, and otherwise half the steps are adds, so tables fill up between
// leaves), beside a reference model, and after every step
// audits the table (checkPartnerIndexes) and requires it to agree with the
// model: the same ids in byID, in slots the model chose, with the model's
// rates; byReq in the order the model's weights give; the same best partner;
// the same free slots in the same order. The node's peers are online and
// hold no partner, and it remembers a rate for each, so adds start with
// every weight.
func checkTableMatchesModel(t testing.TB, maxPartners int, ops []byte) tableCoverage {
	t.Helper()
	w := buildWorld(t, 5, 24, 0)
	w.net.SetTrackerPaused(true) // joins form no partnerships
	nd, others := w.peers[0], w.peers[1:]
	prof := *nd.Profile
	prof.MaxPartners, prof.PartnerTarget = maxPartners, min(prof.PartnerTarget, maxPartners)
	prof.RequestWeight, prof.RetainWeight = tableWeight{}, tableWeight{}
	nd.Profile = &prof
	for _, p := range w.peers {
		p.Join()
	}
	for i, p := range others {
		nd.rateMemory[p.ID] = units.BitRate(i)
	}
	m := tableModel{rows: make(map[PeerID]tableRow)}
	var cov tableCoverage
	for step := 0; step+1 < len(ops); step += 2 {
		other := others[int(ops[step+1])%len(others)]
		row, listed := m.rows[other.ID]
		switch what := ops[step]; {
		case what == 255: // leave and rejoin
			nd.Leave()
			nd.Join()
			clear(m.rows)
			m.free, m.n = m.free[:0], 0
			cov.leaves++
		case what%8 < 4: // add, or a duplicate add; nothing adds past the cap
			switch {
			case listed:
				nd.partners[row.slot].announce = false
				nd.addPartner(other)
				if !nd.partners[row.slot].announce {
					t.Fatalf("step %d: a duplicate add of %d left its row unannounced", step, other.ID)
				}
				cov.dups++
			case len(m.rows) < maxPartners:
				nd.addPartner(other)
				row = tableRow{rate: nd.rateMemory[other.ID], slot: int32(m.n)}
				if n := len(m.free); n > 0 {
					row.slot, m.free = m.free[n-1], m.free[:n-1]
					cov.reused++
				} else {
					m.n++
				}
				m.rows[other.ID] = row
				cov.adds++
				if len(m.rows) == maxPartners {
					cov.full++
				}
			}
		case what%8 < 6: // remove, listed or not
			nd.removePartner(other.ID)
			if listed {
				delete(m.rows, other.ID)
				m.free = append(m.free, row.slot)
				cov.removes++
			}
		case listed: // a new rate, and with it a new weight
			rate := units.BitRate(ops[step+1]) >> 1
			nd.partners[row.slot].estRate = rate
			nd.rescore(row.slot)
			row.rate = rate
			m.rows[other.ID] = row
			cov.rescores++
		}
		checkPartnerIndexes(t, nd)

		weight := func(en reqEntry) float64 { return tableWeight{}.Weight(policy.Info{EstRate: m.rows[en.id].rate}) }
		var wantID []idEntry
		var wantReq []reqEntry
		for id, row := range m.rows {
			wantID = append(wantID, idEntry{id: id, slot: row.slot})
			wantReq = append(wantReq, reqEntry{id: id, slot: row.slot})
			if got := nd.partners[row.slot].estRate; got != row.rate {
				t.Fatalf("step %d: partner %d's rate %d, the model says %d", step, id, got, row.rate)
			}
		}
		slices.SortFunc(wantID, func(a, b idEntry) int { return int(a.id - b.id) })
		slices.SortFunc(wantReq, func(a, b reqEntry) int {
			if reqBefore(weight(a), a.id, weight(b), b.id) {
				return -1
			}
			return 1
		})
		if !slices.Equal(nd.byID, wantID) {
			t.Fatalf("step %d: byID %v, the model %v", step, nd.byID, wantID)
		}
		if !slices.Equal(nd.byReq, wantReq) {
			t.Fatalf("step %d: byReq %v, the model %v", step, nd.byReq, wantReq)
		}
		var wantBest *partner
		if len(wantReq) > 0 && weight(wantReq[0]) > 0 {
			wantBest = &nd.partners[wantReq[0].slot]
		}
		if n := len(wantReq); n > 1 && !math.IsNaN(weight(wantReq[0])) && math.IsNaN(weight(wantReq[n-1])) {
			cov.nanTails++
		}
		if got := nd.bestPartner(); got != wantBest {
			t.Fatalf("step %d: bestPartner %p, the model's %p", step, got, wantBest)
		}
		var free []int32
		for f := nd.freeSlot; f != 0; f = int16(nd.partners[f-1].rtt) {
			free = append(free, int32(f-1))
		}
		slices.Reverse(free)
		if len(nd.partners) != m.n || !slices.Equal(free, m.free) {
			t.Fatalf("step %d: table of %d with free slots %v (oldest first), the model %d and %v", step, len(nd.partners), free, m.n, m.free)
		}
	}
	return cov
}

// TestPartnerTableMatchesModel runs seeded random sequences through
// checkTableMatchesModel at three table sizes and insists they reached the
// table's every path (a table of one cannot queue a NaN behind anything).
func TestPartnerTableMatchesModel(t *testing.T) {
	for _, size := range []int{1, 4, 14} {
		rng := rand.New(rand.NewSource(int64(size)))
		ops := make([]byte, 4000)
		rng.Read(ops)
		cov := checkTableMatchesModel(t, size, ops)
		t.Logf("MaxPartners %d: %+v", size, cov)
		if cov.adds == 0 || cov.dups == 0 || cov.removes == 0 || cov.rescores == 0 || cov.leaves == 0 ||
			cov.reused == 0 || cov.full == 0 || cov.nanTails == 0 && size > 1 {
			t.Errorf("MaxPartners %d: some path never ran: %+v", size, cov)
		}
	}
}

// FuzzPartnerTable lets the fuzzer choose the table size and the operations.
func FuzzPartnerTable(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 2, 0, 9, 6, 4, 1, 9, 7, 9, 255, 0, 0, 5})
	f.Add(uint8(13), []byte{0, 8, 0, 9, 0, 13, 6, 9, 7, 13, 4, 8, 0, 7, 2, 7, 5, 9, 255, 7})
	f.Fuzz(func(t *testing.T, maxPartners uint8, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		checkTableMatchesModel(t, 1+int(maxPartners)%16, ops)
	})
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
