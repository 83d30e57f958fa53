package overlay

import (
	"fmt"
	"maps"
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
	"napawine/internal/sim"
	"napawine/internal/units"
)

// TestPartnerIndexStaysConsistent drives a churning swarm and then audits
// every node's partner table. This is the invariant the whole zero-alloc
// selection path leans on.
func TestPartnerIndexStaysConsistent(t *testing.T) {
	w := buildWorld(t, 5, 30, 3)
	w.startAll()
	w.eng.Run(60 * time.Second)

	for _, nd := range append(w.peers, w.src) {
		checkPartnerTable(t, nd)
	}
}

// sameWeight compares weights with NaN equal to NaN.
func sameWeight(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// checkPartnerTable audits one node's partner table: the table's own
// invariant (checkPartners), every record's cached request weight equal to a
// fresh evaluation, and partnerByID finding every partner at its position and
// missing ids below, between and above.
func checkPartnerTable(t testing.TB, nd *Node) {
	t.Helper()
	if err := nd.checkPartners(); err != nil {
		t.Fatal(err)
	}
	for i := range nd.partners {
		p := &nd.partners[i]
		if want := nd.Profile.RequestWeight.Weight(p.info()); !sameWeight(p.reqW, want) {
			t.Fatalf("node %d: partner %d cached request weight %v stale, want %v", nd.ID, p.id(), p.reqW, want)
		}
	}
	// Every id from below the first node's to above the last's: a partner's
	// id finds that partner's record, any other misses.
	for id := PeerID(-1); id <= PeerID(len(nd.net.nodes)); id++ {
		got := nd.partnerByID(id)
		at := slices.IndexFunc(nd.partners, func(p partner) bool { return p.id() == id })
		if (at >= 0) != (got != nil) || at >= 0 && got != &nd.partners[at] {
			t.Fatalf("node %d: partnerByID(%d) = %p, listed at %d", nd.ID, id, got, at)
		}
	}
}

// TestBestPartnerRule pins the greedy pass's pick on hand-built tables: the
// selectable partner of highest request weight, the lowest id among equals,
// never a NaN weight — which a Weight can produce, e.g. a Bias with a NaN
// strength — and nil when the best weight is not
// positive. An offline partner and the source are not selectable.
func TestBestPartnerRule(t *testing.T) {
	w := buildWorld(t, 13, 5, 0)
	nd, others := w.peers[0], w.peers[1:] // others' ids ascend
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		weights []float64 // of others[0], others[1], ...
		offline int       // 1 + the index of an offline partner, 0 for none
		want    int       // the index of the pick, -1 for nil
	}{
		{"NaNs beside real weights", []float64{nan, 5, nan, 9}, 0, 3},
		{"all NaN", []float64{nan, nan, nan}, 0, -1},
		{"best not positive", []float64{0, -1, nan, -0.5}, 0, -1},
		{"a tie goes to the lowest id", []float64{nan, 7, 3, 7}, 0, 1},
		{"infinite weights tie too", []float64{inf, nan, inf}, 0, 0},
		{"an offline best is passed over", []float64{2, 9, nan, 1}, 2, 0},
	} {
		nd.partners = make([]partner, 0, nd.Profile.MaxPartners)
		for i, wt := range c.weights {
			nd.partners = append(nd.partners, partner{key: partnerKey(others[i].ID), reqW: wt})
			others[i].online = i+1 != c.offline
		}
		var want *partner
		if c.want >= 0 {
			want = &nd.partners[c.want]
		}
		if got := nd.bestPartner(0); got != want {
			t.Errorf("%s: bestPartner = %+v, want %+v", c.name, got, want)
		}
	}
	// The source, however heavy, is not a partner the greedy pass pulls from.
	w.src.online, others[0].online = true, true
	nd.partners = append(nd.partners[:0], partner{key: partnerKey(w.src.ID), reqW: 100}, partner{key: partnerKey(others[0].ID), reqW: 1})
	if got := nd.bestPartner(0); got != &nd.partners[1] {
		t.Errorf("with the source as a partner: bestPartner = %+v, want the weight-1 peer", got)
	}
}

// TestPartnerTableShape pins what the table was built for: a 32-byte record
// whose one pointer word is its advert view, and no pointer in the request
// round's scratch, so the collector scans one word per record and none of
// the scratch. TestNodeHotHeaderFitsOneLine holds Node to its size class
// with the table in it.
func TestPartnerTableShape(t *testing.T) {
	if size := unsafe.Sizeof(partner{}); size != 32 {
		t.Errorf("partner is %d bytes, want 32", size)
	}
	for _, c := range []struct {
		ty   reflect.Type
		want int
	}{
		{reflect.TypeOf(partner{}), 1},
		{reflect.TypeOf(shardCtx{}.reqOrder).Elem(), 0},
	} {
		if got := pointerWords(c.ty); got != c.want {
			t.Errorf("%v holds %d pointer words, want %d", c.ty, got, c.want)
		}
	}
}

// TestPartnerKeyPacksIDAndFlags: over every value of the byte below the id
// and ids at the edges of the 24 bits, a key gives back its id, key order is
// id order whatever the flags, and each setter moves only its own bits —
// the id, the other flags and the rest of the record stay as they were. The
// failure count saturates at maxFailures.
func TestPartnerKeyPacksIDAndFlags(t *testing.T) {
	if MaxPeerID != 1<<24-1 {
		t.Fatalf("MaxPeerID is %d; a run needing an id past 2²⁴ − 1 is refused before AddNode would", MaxPeerID)
	}
	ids := []PeerID{0, 1, 1 << 23, MaxPeerID}
	rec := func(id PeerID, flags uint32) partner {
		return partner{key: partnerKey(id) | flags, rtt: 37, reqW: 2.5, estRate: units.Mbps}
	}
	for i, id := range ids {
		for flags := range uint32(256) {
			p := rec(id, flags)
			if p.id() != id || p.loc() != flags&7 || p.announce() != (flags&8 != 0) || p.failures() != int(flags>>4) {
				t.Fatalf("key %#x reads id %d, loc %d, announce %v, %d failures", p.key, p.id(), p.loc(), p.announce(), p.failures())
			}
			for _, higher := range ids[i+1:] {
				for other := range uint32(256) {
					if q := rec(higher, other); !(p.key < q.key) {
						t.Fatalf("key %#x (id %d) does not sort below key %#x (id %d)", p.key, id, q.key, higher)
					}
				}
			}
			// Each setter against the record with its own bits overwritten by
			// hand: nothing else may differ.
			want := func(setter string, got partner, bits, to uint32) {
				t.Helper()
				w := p
				w.key = w.key&^bits | to
				if got != w {
					t.Fatalf("%s on %+v gave %+v, want %+v", setter, p, got, w)
				}
			}
			for _, on := range []bool{false, true} {
				q := p
				q.setAnnounce(on)
				to := uint32(0)
				if on {
					to = keyAnnounce
				}
				want(fmt.Sprintf("setAnnounce(%v)", on), q, keyAnnounce, to)
			}
			q := p
			q.fail()
			want("fail", q, keyFailures, min(flags>>4+1, maxFailures)<<keyFailShift)
			q = p
			q.clearFailures()
			want("clearFailures", q, keyFailures, 0)
		}
	}
	var p partner
	for range 3 * maxFailures {
		p.fail()
	}
	if p.failures() != maxFailures || p.id() != 0 {
		t.Errorf("failing a record past saturation: %d failures, id %d; want %d, 0", p.failures(), p.id(), maxFailures)
	}
}

// TestPartnerRecordPacksInfo: the packed record gives back every Info a
// partnership can form with, whatever the flags beside the locality bits,
// and an RTT the record cannot hold panics at formation, naming both peers,
// instead of being truncated.
func TestPartnerRecordPacksInfo(t *testing.T) {
	for loc := range 8 {
		for _, rtt := range []time.Duration{0, 37 * time.Millisecond, math.MaxInt32} {
			info := policy.Info{
				SameSubnet: loc&1 != 0, SameAS: loc&2 != 0, SameCC: loc&4 != 0,
				RTT: rtt, EstRate: units.BitRate(loc) * units.Mbps,
			}
			p := partner{key: partnerKey(7) | keyAnnounce | 3<<keyFailShift | keyLoc}
			p.pack(info, 3)
			if got := p.info(); got != info {
				t.Errorf("packed %+v, unpacked %+v", info, got)
			}
			if p.id() != 7 || !p.announce() || p.failures() != 3 {
				t.Errorf("pack moved the id or a flag: key %#x", p.key)
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "peers 3 and 7") {
			t.Errorf("an RTT past 32 bits of nanoseconds: panic %q, want one naming peers 3 and 7", msg)
		}
	}()
	p := partner{key: partnerKey(7)}
	p.pack(policy.Info{RTT: math.MaxInt32 + 1}, 3)
}

// pointerWords counts the words of a value of type ty that the collector
// scans.
func pointerWords(ty reflect.Type) int {
	switch ty.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Slice, reflect.String:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return ty.Len() * pointerWords(ty.Elem())
	case reflect.Struct:
		n := 0
		for i := range ty.NumField() {
			n += pointerWords(ty.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestPartnerTableNeverMoves runs a flash crowd of flapping peers under the
// congestion model — partner adds, drops, backoffs and whole-table clears all
// the time — and requires every node's partner table and congestion table to
// keep the one backing array its first Join allocated, at MaxPartners, with
// every node's structures sound at every second (checkEverySecond). Records
// move within the array; the array never moves.
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
	w.checkEverySecond(t)
	for sec := 1; sec <= 60; sec++ {
		w.eng.Run(time.Duration(sec) * time.Second)
		for _, nd := range append(w.peers, w.src) {
			if nd.partners == nil {
				continue
			}
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

// tableRow is one partner of the model table: its rate, congestion entry,
// failure count, announce flag and the locality bits it formed with.
type tableRow struct {
	rate     units.BitRate
	cong     partnerCong
	failures int
	announce bool
	loc      uint32
}

// tableCoverage counts what a checked sequence exercised.
type tableCoverage struct {
	adds, dups, removes, rescores, marks, leaves int
	fails, clears, toggles                       int
	shifted, full                                int // shifted: an add or remove that moved records
	// bestPartner passed over a NaN weight, broke a tie, passed over a
	// partner in backoff that outweighed its pick, or picked a partner whose
	// backoff had ended.
	nanSkipped, tiesBroken, backedOff, expired int
}

// checkTableMatchesModel runs one node's partner table through ops, two
// bytes a step (what, whom; what 255 is a leave and rejoin, which empties the
// table, and otherwise half the steps are adds, so tables fill up between
// leaves), beside a map model, under the congestion model, and after every
// step audits the table (checkPartnerTable) and requires it to agree with the
// model: the model's ids, ascending, each record holding the model's rate,
// failure count, announce flag and locality bits and sitting beside the
// model's congestion entry; partnerByID finding each; and bestPartner
// returning the model's pick at a fixed instant, now: a backoff ending after
// now holds, one ending at now is over. The node's peers are online
// and hold no partner, and it remembers a rate for each, so adds start with
// every weight.
func checkTableMatchesModel(t testing.TB, maxPartners int, ops []byte) tableCoverage {
	t.Helper()
	cfg := testConfig()
	cfg.Congestion = access.CongestionModel{QueueDepth: 2}
	w := buildWorldCfg(t, 5, 24, 0, cfg)
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
		nd.rateMemory.set(p.ID, units.BitRate(i))
	}
	const now = sim.Time(time.Minute)
	weight := func(r tableRow) float64 { return tableWeight{}.Weight(policy.Info{EstRate: r.rate}) }
	m := make(map[PeerID]tableRow)
	var cov tableCoverage
	for step := 0; step+1 < len(ops); step += 2 {
		other := others[int(ops[step+1])%len(others)]
		row, listed := m[other.ID]
		n := len(nd.partners)
		switch what := ops[step]; {
		case what == 255: // leave and rejoin
			nd.Leave()
			nd.Join()
			clear(m)
			cov.leaves++
		case what%16 < 8: // add, or a duplicate add; nothing adds past the cap
			switch {
			case listed:
				nd.partnerByID(other.ID).setAnnounce(false)
				nd.addPartner(other)
				if !nd.partnerByID(other.ID).announce() {
					t.Fatalf("step %d: a duplicate add of %d left its row unannounced", step, other.ID)
				}
				row.announce = true
				m[other.ID] = row
				cov.dups++
			case len(m) < maxPartners:
				nd.addPartner(other)
				var loc uint32
				info := nd.infoFor(other)
				if info.SameSubnet {
					loc |= locSubnet
				}
				if info.SameAS {
					loc |= locAS
				}
				if info.SameCC {
					loc |= locCC
				}
				m[other.ID] = tableRow{rate: nd.rateMemory.get(other.ID), announce: true, loc: loc}
				cov.adds++
				if i, _ := nd.partnerSearch(other.ID); i < n {
					cov.shifted++
				}
				if len(m) == maxPartners {
					cov.full++
				}
			}
		case what%16 < 12: // remove, listed or not
			if i, ok := nd.partnerSearch(other.ID); ok && i < n-1 {
				cov.shifted++
			}
			nd.removePartner(other.ID)
			if listed {
				delete(m, other.ID)
				cov.removes++
			}
		case !listed:
		case what%16 == 12: // a new rate, and with it a new weight
			p := nd.partnerByID(other.ID)
			p.estRate = units.BitRate(ops[step+1]) >> 1
			nd.rescore(p)
			row.rate = p.estRate
			m[other.ID] = row
			cov.rescores++
		case what%16 == 13: // congestion observations: a loss level naming the step; a backoff ending after now, one ending at now, or none
			i, _ := nd.partnerSearch(other.ID)
			row.cong = partnerCong{lossEWMA: float64(step)}
			switch ops[step+1] & 3 {
			case 1, 3:
				row.cong.backoffUntil = now.Add(time.Second)
			case 2:
				row.cong.backoffUntil = now
			}
			(*nd.cong)[i] = row.cong
			m[other.ID] = row
			cov.marks++
		case what%16 == 14: // one more failure, saturating
			nd.partnerByID(other.ID).fail()
			row.failures = min(row.failures+1, maxFailures)
			m[other.ID] = row
			cov.fails++
		case what&16 == 0: // a success clears the failures
			nd.partnerByID(other.ID).clearFailures()
			row.failures = 0
			m[other.ID] = row
			cov.clears++
		default: // the announce flag flips
			row.announce = !row.announce
			nd.partnerByID(other.ID).setAnnounce(row.announce)
			m[other.ID] = row
			cov.toggles++
		}
		checkPartnerTable(t, nd)

		ids := slices.Sorted(maps.Keys(m))
		if len(nd.partners) != len(ids) {
			t.Fatalf("step %d: %d records, the model %d", step, len(nd.partners), len(ids))
		}
		for i, id := range ids {
			p, c := &nd.partners[i], (*nd.cong)[i]
			got := tableRow{rate: p.estRate, cong: c, failures: p.failures(), announce: p.announce(), loc: p.loc()}
			if want := m[id]; p.id() != id || got != want {
				t.Fatalf("step %d: record %d is partner %d with %+v, the model's partner %d with %+v",
					step, i, p.id(), got, id, want)
			}
		}

		// The model's pick: of the partners out of backoff with a real,
		// positive weight, the heaviest, the lowest id among equals.
		wantID := PeerID(-1)
		for id, row := range m {
			wt := weight(row)
			if row.cong.backoffUntil > now || math.IsNaN(wt) || wt <= 0 {
				continue
			}
			if best := weight(m[wantID]); wantID < 0 || wt > best || wt == best && id < wantID {
				wantID = id
			}
		}
		var want *partner
		if wantID >= 0 {
			want = nd.partnerByID(wantID)
		}
		if got := nd.bestPartner(now); got != want {
			t.Fatalf("step %d: bestPartner %+v, the model's %+v", step, got, want)
		}
		if wantID >= 0 && m[wantID].cong.backoffUntil != 0 {
			cov.expired++
		}
		for id, row := range m {
			switch wt := weight(row); {
			case math.IsNaN(wt):
				if wantID >= 0 {
					cov.nanSkipped++
				}
			case row.cong.backoffUntil > now:
				if wt > 0 && (wantID < 0 || wt >= weight(m[wantID])) {
					cov.backedOff++
				}
			case wantID >= 0 && id > wantID && wt == weight(m[wantID]):
				cov.tiesBroken++
			}
		}
	}
	return cov
}

// TestPartnerTableMatchesModel runs seeded random sequences through
// checkTableMatchesModel at three table sizes and insists they reached the
// table's every path (a table of one shifts nothing and ties nothing, and
// its seed marks two backoffs).
func TestPartnerTableMatchesModel(t *testing.T) {
	for _, size := range []int{1, 4, 14} {
		rng := rand.New(rand.NewSource(int64(size)))
		ops := make([]byte, 4000)
		rng.Read(ops)
		cov := checkTableMatchesModel(t, size, ops)
		t.Logf("MaxPartners %d: %+v", size, cov)
		if cov.adds == 0 || cov.dups == 0 || cov.removes == 0 || cov.rescores == 0 || cov.marks == 0 ||
			cov.fails == 0 || cov.clears == 0 || cov.toggles == 0 ||
			cov.leaves == 0 || cov.full == 0 || cov.backedOff == 0 ||
			size > 1 && (cov.shifted == 0 || cov.nanSkipped == 0 || cov.tiesBroken == 0 || cov.expired == 0) {
			t.Errorf("MaxPartners %d: some path never ran: %+v", size, cov)
		}
	}
}

// FuzzPartnerTable lets the fuzzer choose the table size and the operations.
// The third seed is a NaN-weight profile: an all-NaN table, real weights
// added beside it, a tie, backoffs over the best. The fourth fails one
// partner past saturation between flag flips and clears.
func FuzzPartnerTable(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 2, 0, 3, 0, 4, 8, 2, 0, 9, 12, 4, 1, 9, 13, 9, 255, 0, 0, 5})
	f.Add(uint8(13), []byte{0, 8, 0, 9, 0, 13, 12, 9, 13, 13, 8, 8, 0, 7, 2, 7, 9, 9, 255, 7})
	f.Add(uint8(5), []byte{0, 4, 0, 9, 0, 14, 0, 2, 0, 3, 0, 8, 0, 13, 12, 9, 13, 3, 13, 31, 8, 3, 255, 0, 0, 4})
	seed := []byte{0, 5, 0, 6, 31, 5, 14, 6}
	for range maxFailures + 2 {
		seed = append(seed, 14, 5)
	}
	f.Add(uint8(2), append(seed, 31, 5, 15, 5, 0, 5, 14, 5, 8, 6))
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
	run := func(strat policy.Hybrid) (int64, float64) {
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
	dlVideo, dlOK := run(policy.Hybrid{DeadlineBias: 1})
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
// to end (rarest is the only registered strategy that reads
// ChunkRef.Holders).
func TestRarestStrategySustainsSwarm(t *testing.T) {
	w := buildWorld(t, 11, 24, 4)
	for _, nd := range append(w.peers, w.src) {
		nd.Profile.ChunkStrategy = policy.Hybrid{RarestWeight: 1}
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
