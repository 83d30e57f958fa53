package experiment

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"napawine/internal/access"
	"napawine/internal/chunkstream"
	"napawine/internal/overlay"
	"napawine/internal/scenario"
	"napawine/internal/sim"
	"napawine/internal/world"
)

// perPeerHeapBudget bounds what a 2 000-peer PPLive swarm adds to the live
// heap, per peer, with every peer joined: topology, nodes, partner records,
// adverts, neighbour lists, ledger columns and queued events together
// (TestPerPeerAccount breaks it down by structure). It measures 2 167 to
// 2 189 B (alone, under -race, in the package run) with each node's partner
// records held by value in one id-ordered table of MaxPartners 24-byte
// slots, carved with other tables from 64 KB blocks, each record viewing its
// remote's advert through one pointer to a fixed-width block, naming its
// remote in 24 bits of a word shared with its flags and holding its delivery
// rate in 32 bits and no RTT; each outstanding request a 16-byte record;
// each neighbour list bit-packed at 11 bits an entry; each rate memory a
// sorted run of 8-byte entries; each queued event 40 bytes, in 1 KB slabs;
// each probe's remotes in 24-byte rows, with a 32-byte video row only for
// those it exchanged video with; Node in the 320-byte size class; and the
// world's peer lists released once the nodes are built. History: 13 645 B
// before selection scratch moved from the node to the shard and partner
// records began viewing one published advert; 7 939 to
// 8 007 B while every session held four ticker closures and their cancel
// slice and the wheel's slots each kept their own grown capacity; 7 441 to
// 7 460 B while probes staged whole packet.Records; 7 415 to 7 433 B while
// the ledger had ten columns and each of a node's two ports carried three
// lifetime counters; 7 285 to 7 303 B while each partner record was a pooled
// 96-byte allocation that both partner indexes pointed at; 6 092 to 6 110 B
// while the 64-byte record also cached the retain weight and each
// request-index entry copied the request weight; 5 333 to 5 351 B while an
// id index and a weight-ordered request index of 8-byte (id, slot) entries
// sat beside the table, which kept a free list of its slots, and Node was in
// the 384-byte class; 4 642 to 4 660 B while each 56-byte record viewed the
// advert through a 24-byte slice header and Node was in the 352-byte class;
// 4 070 to 4 109 B while the 40-byte record kept its id, failure count,
// announce flag and locality bits in separate fields; 3 675 to 3 694 B while
// the neighbour list stored each id in 32 bits; 3 432 to 3 453 B while each
// rate memory was a Go map, each churn cycle four closures and each queued
// event 48 bytes; 3 165 to 3 185 B while the queue's slabs were 4 KB and
// every probe row 56 bytes; 2 734 to 2 752 B while each partner record was
// 32 bytes with the RTT in it and each rate-memory entry 16 bytes; 2 339 to
// 2 358 B while request records were 24 bytes, PPLive's tables sat in the
// 1,024-byte class and the world's peer lists lived through the run.
// Five virtual seconds in, 106 of the 2 093 neighbour lists are long enough
// to own a 256-byte membership filter: 14 B a peer of the measurement. The
// budget (3 625 → 3 342 → 2 889 → 2 476 → 2 298)
// is the measurement plus 5 %, so 110 B of per-node state cannot come back
// unnoticed.
const perPeerHeapBudget = 2_298

// TestPerPeerFootprint measures from inside the run, at the first series
// sample after the join ramp, while the whole swarm is still reachable.
func TestPerPeerFootprint(t *testing.T) {
	cfg := footprintConfig(t)
	before := liveHeap() // whatever earlier tests of the package left reachable
	var heap uint64
	var online int
	cfg.OnSample = func(s SeriesSample) {
		if heap == 0 && s.T >= footprintAt {
			heap, online = liveHeap()-before, s.Online
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if online < footprintPeers {
		t.Fatalf("measured with %d of %d peers online", online, footprintPeers)
	}
	perPeer := heap / footprintPeers
	t.Logf("live heap %d B per peer", perPeer)
	if perPeer > perPeerHeapBudget {
		t.Errorf("live heap %d B per peer (%d KB in all), budget %d", perPeer, heap>>10, perPeerHeapBudget)
	}
}

// The footprint's swarm and moment: 2,000 PPLive peers, measured at the
// first series sample at least four virtual seconds in, after the join ramp.
const (
	footprintPeers = 2000
	footprintAt    = 4 * time.Second
)

func footprintConfig(t *testing.T) Config {
	cfg := Default("PPLive")
	cfg.World.Peers = footprintPeers
	cfg.Duration = 5 * time.Second
	cfg.BackgroundJoinWindow = 3 * time.Second
	steady, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = steady // series samples, and with them OnSample, need one
	return cfg
}

// liveHeap is the heap's live bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// accountRow is one line of the per-peer account: a structure, the
// allocation sites that build it (the innermost napawine function of an
// allocation's stack, matched by prefix), and its expected bytes, computed
// from counts the run holds and the sizes of its types. An estimated row's
// count leaves something out (the world's maps are sized by a rule of
// thumb); every other row is counted exactly.
type accountRow struct {
	name      string
	sites     []string
	estimated bool
	expected  uintptr
	measured  int64
}

// accountShare is the least share of the live heap the named rows must
// explain: a structure that outgrows its row, or a new one no row names,
// shows as a shortfall. A counted row may miss its measurement by
// countSlack of it (in a package run, goroutines other tests left behind
// can allocate at a row's sites while this one measures: 16 B of 303 KB
// seen), an estimated row by estimateSlack.
const (
	accountShare  = 0.95
	countSlack    = 0.01
	estimateSlack = 0.10
)

// TestPerPeerAccount accounts for the live heap TestPerPeerFootprint
// measures, at the same moment of the same swarm, one row per structure.
// A row's expected bytes come from counts the run holds (nodes, slabs, ring
// words, advert blocks) times the size of the type (reflect's, which is
// unsafe.Sizeof's), rounded the way the allocator rounds: its size class, or
// whole 8 KB pages past 32 KB; the partner blocks' row is overlay's own count
// of their bytes. Its measured bytes
// come from a heap profile of the run, by allocation site. A layout change
// moves its own row, expected and measured alike: adding an 8-byte field to
// overlay's pendingReq moves the request sets from 96 to 144 bytes a node
// and no other row. The test fails when the rows' expected bytes explain
// less than accountShare of the live heap, or when a row misses its
// measurement by more than its slack.
func TestPerPeerAccount(t *testing.T) {
	cfg := footprintConfig(t)
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	var (
		w   *world.World
		net *overlay.Network
		sh  *sim.Sharded
	)
	builtHook = func(ww *world.World, n *overlay.Network, s *sim.Sharded) { w, net, sh = ww, n, s }
	defer func() { builtHook = nil }()

	rows := []*accountRow{
		{name: "partner blocks", sites: []string{"overlay.(*shardCtx).partnerTable"}},
		{name: "Node and the node list", sites: []string{"overlay.(*Network).AddNode"}},
		{name: "request sets", sites: []string{"overlay.(*Node).Join"}},
		{name: "wheel slabs", sites: []string{"sim.(*Engine).file"}},
		{name: "neighbour words and filters", sites: []string{"overlay.(*neighborRing)."}},
		{name: "world and topology", sites: []string{"world.", "topology."}, estimated: true},
		{name: "ports", sites: []string{"access.NewPort"}},
		{name: "buffer maps and adverts", sites: []string{"chunkstream.NewBufferMap", "chunkstream.(*BufferMap).Publish"}},
		{name: "playouts", sites: []string{"chunkstream.NewPlayout"}},
		{name: "ledger columns and live list", sites: []string{"overlay.(*Ledger).grow", "overlay.(*Network).markOnline"}},
	}
	before, base := liveHeap(), sitesInUse(rows)
	var heap uint64
	var rest int64
	cfg.OnSample = func(s SeriesSample) {
		if heap != 0 || s.T < footprintAt {
			return
		}
		heap = liveHeap() - before
		now := sitesInUse(rows)
		for i, r := range rows {
			r.measured = now[i] - base[i]
		}
		rest = now[len(rows)] - base[len(rows)]
		expectAccount(t, rows, w, net, sh)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if heap == 0 {
		t.Fatal("no sample reached the measuring moment")
	}

	var explained uintptr
	t.Logf("%-30s %10s %10s %9s", "row", "expected", "measured", "B a peer")
	for _, r := range rows {
		explained += r.expected
		t.Logf("%-30s %10d %10d %9.1f", r.name, r.expected, r.measured, float64(r.expected)/footprintPeers)
		slack := countSlack
		if r.estimated {
			slack = estimateSlack
		}
		if math.Abs(float64(r.expected)-float64(r.measured)) > slack*float64(r.measured) {
			t.Errorf("%s: expected %d B from the counts, measured %d B at its sites", r.name, r.expected, r.measured)
		}
	}
	t.Logf("%-30s %10s %10d", "the rest, by site", "", rest)
	share := float64(explained) / float64(heap)
	t.Logf("account: the rows explain %d of %d B live (%.1f %%), %d B a peer", explained, heap, 100*share, heap/footprintPeers)
	if share < accountShare {
		t.Errorf("the rows explain %.1f %% of the live heap, want at least %.0f %%", 100*share, 100*accountShare)
	}
}

// sitesInUse is the heap profile's live bytes by row, after a full
// collection; index len(rows) holds the rest. Each allocation goes to the
// row naming its innermost napawine function.
func sitesInUse(rows []*accountRow) []int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := make([]int64, len(rows)+1)
	for _, rec := range recs[:n] {
		out[rowOf(rows, rec.Stack())] += rec.InUseBytes()
	}
	return out
}

// rowOf is the index of the row the allocation with this stack belongs to,
// len(rows) when none names its innermost napawine function.
func rowOf(rows []*accountRow, stack []uintptr) int {
	const module = "napawine/internal/"
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if fn, ok := strings.CutPrefix(f.Function, module); ok {
			for i, r := range rows {
				for _, site := range r.sites {
					if strings.HasPrefix(fn, site) {
						return i
					}
				}
			}
			return len(rows)
		}
		if !more {
			return len(rows)
		}
	}
}

// allocated is what the allocator hands out for an object of n bytes: its
// size class (growslice rounds a byte slice's capacity to it), or whole 8 KB
// pages past 32 KB. An object holding pointers and larger than 512 bytes
// carries an 8-byte header inside its size class.
func allocated(n uintptr, pointers bool) uintptr {
	if n == 0 {
		return 0
	}
	if pointers && n > 512 && n <= 32<<10-8 {
		n += 8
	}
	return uintptr(cap(append([]byte(nil), make([]byte, n)...)))
}

// holdsPointers reports whether the garbage collector scans values of ty.
func holdsPointers(ty reflect.Type) bool {
	switch ty.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return ty.Len() > 0 && holdsPointers(ty.Elem())
	case reflect.Struct:
		for i := range ty.NumField() {
			if holdsPointers(ty.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// sliceBytes is what the allocator holds for the backing array of slice s.
func sliceBytes(s reflect.Value) uintptr {
	elem := s.Type().Elem()
	return allocated(uintptr(s.Cap())*elem.Size(), holdsPointers(elem))
}

// objectBytes is what the allocator holds for one value of type ty.
func objectBytes(ty reflect.Type) uintptr { return allocated(ty.Size(), holdsPointers(ty)) }

// mapBytes estimates a map of n entries of the given key and element types:
// its header, and groups of eight slots, each with a control byte, filled to
// at most seven eighths.
func mapBytes(n int, key, elem reflect.Type) uintptr {
	slots := uintptr(8)
	for slots*7/8 < uintptr(n) {
		slots *= 2
	}
	return 48 + allocated(slots*(key.Size()+elem.Size()+1), holdsPointers(key) || holdsPointers(elem))
}

// field is the named field of the struct v is or points at. Unexported
// fields are read the same way, through reflect, which is how the account
// counts what the overlay and the engine hold without an accessor of its
// own.
func field(v reflect.Value, name string) reflect.Value {
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	f := v.FieldByName(name)
	if !f.IsValid() {
		panic(fmt.Sprintf("account: %v has no field %s", v.Type(), name))
	}
	return f
}

// expectAccount fills each row's expected bytes from the counts the run
// holds now.
func expectAccount(t *testing.T, rows []*accountRow, w *world.World, net *overlay.Network, sh *sim.Sharded) {
	nodes := net.Nodes()
	nodeVals := reflect.ValueOf(nodes)
	var tabled, ringBytes uintptr
	blocks := map[uintptr]bool{} // advert blocks viewed, by address
	view := func(ad reflect.Value) {
		if p := field(ad, "w"); !p.IsNil() {
			blocks[p.Pointer()] = true
		}
	}
	var requests, buf, bits, play, filter reflect.Type
	for i := range nodes {
		nd := nodeVals.Index(i)
		ring := field(nd, "neighbors")
		ringBytes += sliceBytes(field(ring, "words"))
		if f := field(ring, "filter"); !f.IsNil() {
			ringBytes += objectBytes(f.Type().Elem())
			filter = f.Type().Elem()
		}
		view(field(nd, "advert"))
		partners := field(nd, "partners")
		if partners.IsNil() {
			continue
		}
		tabled++
		requests = field(nd, "inflight").Type()
		buf, play = field(nd, "buf").Type().Elem(), field(nd, "play").Type().Elem()
		bits = field(field(nd, "buf"), "bits").Type()
		for j := range partners.Len() {
			view(field(partners.Index(j), "have"))
		}
	}
	if tabled == 0 || filter == nil {
		t.Fatalf("%d nodes joined and no neighbour list owns a filter: nothing to account", tabled)
	}
	prof := nodes[0].Profile
	for _, r := range rows {
		switch r.name {
		case "partner blocks":
			// Overlay's count of the bytes its blocks hold. The runtime
			// rounds each block up to whole pages, less than one table more
			// (256 B of PPLive's 64 KB), inside countSlack.
			shards := field(reflect.ValueOf(net), "shards")
			for i := range shards.Len() {
				r.expected += uintptr(field(shards.Index(i), "tableBytes").Int())
			}
		case "Node and the node list":
			r.expected = uintptr(len(nodes))*objectBytes(reflect.TypeFor[overlay.Node]()) + sliceBytes(nodeVals)
		case "request sets":
			r.expected = tabled * allocated(uintptr(prof.MaxInflight)*requests.Elem().Size(), holdsPointers(requests.Elem()))
		case "wheel slabs":
			engines := map[*sim.Engine]bool{sh.Global(): true}
			for i := range sh.N() {
				engines[sh.Shard(i)] = true
			}
			for eng := range engines {
				v := reflect.ValueOf(eng)
				heads := []reflect.Value{field(v, "free")}
				levels := field(v, "slots")
				for l := range levels.Len() {
					for s := range levels.Index(l).Len() {
						heads = append(heads, levels.Index(l).Index(s))
					}
				}
				for _, s := range heads {
					for ; !s.IsNil(); s = field(s, "next") {
						r.expected += objectBytes(s.Type().Elem())
					}
				}
			}
		case "neighbour words and filters":
			r.expected = ringBytes
		case "world and topology":
			topo := reflect.ValueOf(w.Topo)
			r.expected = objectBytes(topo.Type().Elem()) + objectBytes(reflect.TypeFor[world.World]()) + sliceBytes(reflect.ValueOf(w.Probes))
			for _, name := range []string{"ases", "subnets"} {
				s := field(topo, name)
				r.expected += sliceBytes(s) + uintptr(s.Len())*objectBytes(s.Type().Elem().Elem())
			}
			dist := field(topo, "asDist")
			r.expected += sliceBytes(dist) + sliceBytes(field(topo, "nextHostIP"))
			for i := range dist.Len() {
				r.expected += sliceBytes(dist.Index(i))
			}
			for _, m := range []reflect.Value{field(topo, "asIndex"), field(topo, "bySubnet"), field(reflect.ValueOf(w), "probeAddrs")} {
				r.expected += mapBytes(m.Len(), m.Type().Key(), m.Type().Elem())
			}
		case "ports":
			r.expected = 2 * uintptr(len(nodes)) * objectBytes(reflect.TypeFor[access.Port]())
		case "buffer maps and adverts":
			advert := reflect.TypeFor[chunkstream.Advert]().Field(0).Type.Elem()
			r.expected = tabled*(objectBytes(buf)+allocated(uintptr((net.Cfg.BufferWindow+63)/64)*bits.Elem().Size(), false)) +
				uintptr(len(blocks))*objectBytes(advert)
		case "playouts":
			r.expected = tabled * objectBytes(play)
		case "ledger columns and live list":
			led := reflect.ValueOf(net.LedgerView())
			r.expected = sliceBytes(field(led, "VideoRx")) + sliceBytes(field(led, "VideoTx"))
			shards := field(reflect.ValueOf(net), "shards")
			for i := range shards.Len() {
				r.expected += sliceBytes(field(shards.Index(i), "online"))
			}
		default:
			t.Fatalf("no count for row %q", r.name)
		}
	}
}
