package analysis

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"napawine/internal/core"
	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/topology"
	"napawine/internal/units"
)

// mapAggregator is the aggregator as it was before its table: a map keyed by
// netip.Addr to a separately allocated *PeerAggregate per remote. Kept as the
// reference model the table must agree with.
type mapAggregator struct {
	probe netip.Addr
	cfg   Config
	peers map[netip.Addr]*PeerAggregate
	count uint64
}

func newMapAggregator(probe netip.Addr, cfg Config) *mapAggregator {
	return &mapAggregator{probe: probe, cfg: cfg, peers: make(map[netip.Addr]*PeerAggregate)}
}

func (a *mapAggregator) consume(r packet.Record) {
	remote, inbound := sniffer.Remote(r, a.probe)
	agg := a.peers[remote]
	if agg == nil {
		agg = &PeerAggregate{}
		a.peers[remote] = agg
	}
	a.count++
	size := int64(r.Size)
	isVideo := r.Size >= a.cfg.VideoSizeFloor
	if inbound {
		agg.TotalDown += size
		agg.Received = true
		if r.TTL > agg.MaxTTL {
			agg.MaxTTL = r.TTL
		}
		if isVideo {
			agg.VideoDown += size
			if r.Size >= a.cfg.FullPacket {
				if agg.hasFull {
					gap := r.TS.Sub(agg.lastFull)
					if gap > 0 && (agg.MinIPG == 0 || gap < agg.MinIPG) {
						agg.MinIPG = gap
					}
				}
				agg.hasFull = true
				agg.lastFull = r.TS
			}
		}
	} else {
		agg.TotalUp += size
		if isVideo {
			agg.VideoUp += size
		}
	}
}

func (a *mapAggregator) peerAddrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(a.peers))
	for addr := range a.peers {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool {
		vi := a.peers[out[i]].VideoDown + a.peers[out[i]].VideoUp
		vj := a.peers[out[j]].VideoDown + a.peers[out[j]].VideoUp
		if vi != vj {
			return vi > vj
		}
		return out[i].Less(out[j])
	})
	return out
}

func (a *mapAggregator) observations(loc Locator, probeSet map[netip.Addr]bool) ([]core.Observation, int) {
	probeHost, _ := loc.Locate(a.probe)
	var obs []core.Observation
	unlocated := 0
	for remote, agg := range a.peers {
		h, ok := loc.Locate(remote)
		if !ok {
			unlocated++
			continue
		}
		obs = append(obs, core.Observation{
			Probe: a.probe.As4(), Peer: remote.As4(),
			VideoUp: agg.VideoUp, VideoDown: agg.VideoDown, TotalUp: agg.TotalUp, TotalDown: agg.TotalDown,
			MinIPG: agg.MinIPG, Hops: int32(agg.Hops()),
			SameAS: h.AS == probeHost.AS, SameCC: h.Country == probeHost.Country, SameSubnet: h.Subnet == probeHost.Subnet,
			PeerIsProbe: probeSet[remote],
		})
	}
	return obs, unlocated
}

// fakeLocator places the addresses it was given and no others.
type fakeLocator map[netip.Addr]topology.Host

func (l fakeLocator) Locate(a netip.Addr) (topology.Host, bool) {
	h, ok := l[a]
	return h, ok
}

// TestTableMatchesMapReference feeds the table and the map it replaced the
// same random IPv4 streams — both directions, video and control sizes around
// the two thresholds, full-size inbound trains with equal and reordered
// timestamps, remotes at the ends of the address space and next to each other
// in it — and requires the same counts, every remote's aggregate, the same
// PeerAddrs order and the same observations as a multiset; the table's come
// in first-seen order.
func TestTableMatchesMapReference(t *testing.T) {
	cfg := DefaultConfig()
	sizes := []units.ByteSize{0, 40, 80, cfg.VideoSizeFloor - 1, cfg.VideoSizeFloor, 1100, cfg.FullPacket - 1, cfg.FullPacket, 1500}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		probe := netip.AddrFrom4([4]byte{10, 0, 0, byte(seed)})
		remotes := []netip.Addr{
			netip.AddrFrom4([4]byte{0, 0, 0, 1}),
			netip.AddrFrom4([4]byte{255, 255, 255, 254}),
			netip.AddrFrom4([4]byte{10, 0, 0, byte(seed) + 1}),
			netip.AddrFrom4([4]byte{10, 0, 1, byte(seed)}),
		}
		for len(remotes) < 10+rng.Intn(200) {
			remotes = append(remotes, netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(4)), byte(rng.Intn(256))}))
		}
		loc := fakeLocator{probe: {Addr: probe, Subnet: 1, AS: 1, Country: "IT"}}
		probeSet := map[netip.Addr]bool{probe: true}
		for _, r := range remotes {
			if rng.Intn(8) > 0 { // the rest stay unlocated
				loc[r] = topology.Host{Addr: r, Subnet: topology.SubnetID(rng.Intn(3)), AS: topology.ASN(rng.Intn(3)), Country: []topology.CC{"IT", "CN"}[rng.Intn(2)]}
			}
			if rng.Intn(5) == 0 {
				probeSet[r] = true
			}
		}

		table, ref := New(probe, cfg), newMapAggregator(probe, cfg)
		var firstSeen []netip.Addr
		feed := func(r packet.Record) {
			remote, _ := sniffer.Remote(r, probe)
			if ref.peers[remote] == nil {
				firstSeen = append(firstSeen, remote)
			}
			table.Consume(r)
			ref.consume(r)
		}
		ts := int64(0)
		for step := 0; step < 3000; step++ {
			remote := remotes[rng.Intn(len(remotes))]
			ts += rng.Int63n(2_000_000)
			if rng.Intn(10) == 0 {
				// A full-size inbound train: gaps of zero (equal timestamps),
				// forward, and now and then backward (reordered).
				at := ts
				for k := rng.Intn(40); k >= 0; k-- {
					feed(packet.Record{TS: sim.Time(at), Src: remote, Dst: probe, Size: cfg.FullPacket, TTL: uint8(100 + rng.Intn(28)), Kind: packet.Video})
					at += []int64{0, 1 + rng.Int63n(1_000_000), -rng.Int63n(200_000)}[rng.Intn(3)]
				}
				continue
			}
			r := packet.Record{TS: sim.Time(ts), Src: remote, Dst: probe, Size: sizes[rng.Intn(len(sizes))], TTL: uint8(rng.Intn(256)), Kind: packet.Kind(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				r.Src, r.Dst, r.TTL = probe, remote, packet.InitialTTL
			}
			feed(r)
		}

		measured := 0
		for _, p := range ref.peers {
			if p.MinIPG > 0 {
				measured++
			}
		}
		if measured == 0 {
			t.Fatalf("seed %d: no remote has a packet-pair estimate; the trains tested nothing", seed)
		}
		if table.PeerCount() != len(ref.peers) || table.Records() != ref.count {
			t.Fatalf("seed %d: %d peers, %d records; the map holds %d, %d", seed, table.PeerCount(), table.Records(), len(ref.peers), ref.count)
		}
		for addr, want := range ref.peers {
			if got := table.Peer(addr); got == nil || *got != *want {
				t.Fatalf("seed %d: Peer(%v) = %+v, the map holds %+v", seed, addr, got, *want)
			}
		}
		for _, absent := range []netip.Addr{netip.AddrFrom4([4]byte{192, 0, 2, 1}), netip.MustParseAddr("2001:db8::1"), {}} {
			if ref.peers[absent] == nil && table.Peer(absent) != nil {
				t.Errorf("seed %d: Peer(%v) found a remote never seen", seed, absent)
			}
		}
		if got, want := table.PeerAddrs(), ref.peerAddrs(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: PeerAddrs\n got %v\nwant %v", seed, got, want)
		}

		got, gotUnlocated := table.AppendObservations(nil, loc, probeSet)
		want, wantUnlocated := ref.observations(loc, probeSet)
		if gotUnlocated != wantUnlocated {
			t.Errorf("seed %d: %d unlocated, the map says %d", seed, gotUnlocated, wantUnlocated)
		}
		var order []netip.Addr
		for _, addr := range firstSeen {
			if _, ok := loc[addr]; ok {
				order = append(order, addr)
			}
		}
		var gotOrder []netip.Addr
		for _, o := range got {
			gotOrder = append(gotOrder, netip.AddrFrom4(o.Peer))
		}
		if !slices.Equal(gotOrder, order) {
			t.Errorf("seed %d: observations are not in first-seen order", seed)
		}
		byPeer := func(a, b core.Observation) int { return bytes.Compare(a.Peer[:], b.Peer[:]) }
		slices.SortFunc(got, byPeer)
		slices.SortFunc(want, byPeer)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: observations differ from the map's as a multiset", seed)
		}
	}
}

// TestTableIsPointerFree: the collector must find nothing to follow in the
// per-peer table, in its index's keys and values, or in the observation rows
// a run's reduce builds from it — a field that brought a pointer back would
// have every aggregate, or every probe×peer row, scanned again.
func TestTableIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(PeerAggregate{}); size > 56 {
		t.Errorf("PeerAggregate is %d bytes, want at most 56", size)
	}
	if size := unsafe.Sizeof(core.Observation{}); size > 64 {
		t.Errorf("core.Observation is %d bytes, want at most 64", size)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: the collector would scan it", path, ty.Kind())
		}
	}
	agg := reflect.TypeOf(Aggregator{})
	for _, name := range []string{"peers", "remotes", "index"} {
		field, ok := agg.FieldByName(name)
		if !ok {
			t.Fatalf("Aggregator has no field %s", name)
		}
		switch ty := field.Type; ty.Kind() {
		case reflect.Map:
			walk(name+" key", ty.Key())
			walk(name+" value", ty.Elem())
		case reflect.Slice:
			walk(name+"[]", ty.Elem())
		default:
			t.Errorf("Aggregator.%s is a %s, want a slice or a map", name, ty.Kind())
		}
	}
	walk("core.Observation", reflect.TypeOf(core.Observation{}))
}

// TestConsumeRejectsNonIPv4Remote: a record no capture or trace can hold is a
// bug in whoever built it.
func TestConsumeRejectsNonIPv4Remote(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("an IPv6 remote was aggregated")
		}
	}()
	a.Consume(packet.Record{Src: netip.MustParseAddr("2001:db8::1"), Dst: probeAddr, Size: 100})
}
