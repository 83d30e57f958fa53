package analysis

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"napawine/internal/access"
	"napawine/internal/core"
	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/topology"
	"napawine/internal/units"
)

var (
	probeAddr = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	peerX     = netip.AddrFrom4([4]byte{10, 0, 1, 1})
	peerY     = netip.AddrFrom4([4]byte{10, 0, 2, 1})
)

func vid(ts int64, src, dst netip.Addr, size units.ByteSize, ttl uint8) packet.Record {
	return packet.Record{TS: sim.Time(ts), Src: src, Dst: dst, Size: size, TTL: ttl, Kind: packet.Video}
}

func sig(ts int64, src, dst netip.Addr, size units.ByteSize, ttl uint8) packet.Record {
	return packet.Record{TS: sim.Time(ts), Src: src, Dst: dst, Size: size, TTL: ttl, Kind: packet.Signaling}
}

// peer is a's aggregate of remote, which must have been seen.
func peer(t *testing.T, a *Aggregator, remote netip.Addr) PeerAggregate {
	t.Helper()
	p, ok := a.Peer(remote)
	if !ok {
		t.Fatalf("%v never aggregated", remote)
	}
	return p
}

func TestAggregationByDirectionAndSize(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	a.Consume(vid(1000, peerX, probeAddr, 1250, 110)) // video in
	a.Consume(vid(2000, peerX, probeAddr, 1250, 110)) // video in
	a.Consume(vid(3000, probeAddr, peerX, 1250, 128)) // video out
	a.Consume(sig(4000, peerX, probeAddr, 80, 110))   // signaling in
	a.Consume(sig(5000, probeAddr, peerX, 60, 128))   // signaling out

	agg := peer(t, a, peerX)
	if agg.VideoDown != 2500 || agg.VideoUp != 1250 {
		t.Errorf("video bytes = %d/%d", agg.VideoDown, agg.VideoUp)
	}
	if agg.TotalDown != 2580 || agg.TotalUp != 1310 {
		t.Errorf("total bytes = %d/%d", agg.TotalDown, agg.TotalUp)
	}
	if a.PeerCount() != 1 || a.Records() != 5 {
		t.Errorf("counters: peers=%d records=%d", a.PeerCount(), a.Records())
	}
}

// TestBytesSumTheRecordsByDirection: the totals Table II's stream rates
// read must be the summed record sizes on each side of the probe, over
// many remotes, sizes on both sides of the video floor and both directions
// interleaved, as a tally of the raw records would have them.
func TestBytesSumTheRecordsByDirection(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	var in, out int64
	for i := 0; i < 5000; i++ {
		remote := netip.AddrFrom4([4]byte{10, 1, byte(rng.Intn(4)), byte(rng.Intn(256))})
		size := units.ByteSize(40 + rng.Intn(1300))
		r := vid(int64(i), remote, probeAddr, size, 100)
		if rng.Intn(3) == 0 {
			r.Src, r.Dst = probeAddr, remote
			out += int64(size)
		} else {
			in += int64(size)
		}
		a.Consume(r)
	}
	if gotIn, gotOut := a.Bytes(); gotIn != in || gotOut != out {
		t.Errorf("Bytes() = %d in, %d out; the records sum to %d in, %d out", gotIn, gotOut, in, out)
	}
}

func TestSizeHeuristicIgnoresKindAnnotation(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	// A 1250-byte packet annotated Signaling still counts as video (the
	// analysis must be passive); an 80-byte packet annotated Video does
	// not.
	a.Consume(sig(1000, peerX, probeAddr, 1250, 110))
	a.Consume(vid(2000, peerX, probeAddr, 80, 110))
	agg := peer(t, a, peerX)
	if agg.VideoDown != 1250 {
		t.Errorf("VideoDown = %d, want 1250 (size-based)", agg.VideoDown)
	}
}

func TestMinIPGMeasurement(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	base := int64(time.Second)
	ms := int64(time.Millisecond)
	// Train 1: gaps 5ms, 3ms. Train 2 (much later): gap 0.4ms.
	for i, off := range []int64{0, 5 * ms, 8 * ms} {
		_ = i
		a.Consume(vid(base+off, peerX, probeAddr, 1250, 110))
	}
	a.Consume(vid(base+int64(10*time.Second), peerX, probeAddr, 1250, 110))
	a.Consume(vid(base+int64(10*time.Second)+4*ms/10, peerX, probeAddr, 1250, 110))

	if got := peer(t, a, peerX).MinIPG; got != 400*time.Microsecond {
		t.Errorf("MinIPG = %v, want 400µs", got)
	}
}

func TestMinIPGIgnoresShortAndOutboundPackets(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	base := int64(time.Second)
	a.Consume(vid(base, peerX, probeAddr, 1250, 110))
	// Short final fragment arrives 0.1ms later: must not shrink the IPG.
	a.Consume(vid(base+int64(100*time.Microsecond), peerX, probeAddr, 500, 110))
	// Outbound full-size packets must not contribute either.
	a.Consume(vid(base+int64(200*time.Microsecond), probeAddr, peerX, 1250, 128))
	a.Consume(vid(base+int64(5*time.Millisecond), peerX, probeAddr, 1250, 110))
	// The gap is measured between the two full-size inbound packets at
	// base and base+5ms; the short fragment and the outbound packet must
	// not move the train cursor.
	if got := peer(t, a, peerX).MinIPG; got != 5*time.Millisecond {
		t.Errorf("MinIPG = %v, want 5ms", got)
	}
}

func TestMinIPGUnmeasurableWithSingleTrainPacket(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	a.Consume(vid(1000, peerX, probeAddr, 1250, 110))
	if got := peer(t, a, peerX).MinIPG; got != 0 {
		t.Errorf("single packet should leave IPG unmeasured, got %v", got)
	}
}

func TestHopsFromTTL(t *testing.T) {
	a := New(probeAddr, DefaultConfig())
	a.Consume(sig(1000, peerX, probeAddr, 80, 109)) // 19 hops
	a.Consume(sig(2000, peerX, probeAddr, 80, 111)) // 17 hops — max TTL wins
	if got := peer(t, a, peerX).Hops(); got != 17 {
		t.Errorf("Hops = %d, want 17 (from max TTL)", got)
	}
	// A peer we only send to has no hop estimate.
	a.Consume(sig(3000, probeAddr, peerY, 80, 128))
	if got := peer(t, a, peerY).Hops(); got != -1 {
		t.Errorf("send-only peer Hops = %d, want -1", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config should panic")
		}
	}()
	New(probeAddr, Config{VideoSizeFloor: 0, FullPacket: 1250})
}

func TestIPv6ProbePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("an IPv6 probe should panic")
		}
	}()
	New(netip.IPv6Loopback(), DefaultConfig())
}

// buildTinyTopo gives a registry with the probe, a same-AS peer and a
// remote peer.
func buildTinyTopo(t *testing.T) (*topology.Topology, topology.Host, topology.Host, topology.Host) {
	t.Helper()
	b := topology.NewBuilder(3)
	b.AddCountry("IT", topology.Europe)
	b.AddCountry("CN", topology.Asia)
	itAS := b.AddAS("IT")
	cnAS := b.AddAS("CN")
	itSub1 := b.AddSubnet(itAS)
	itSub2 := b.AddSubnet(itAS)
	cnSub := b.AddSubnet(cnAS)
	topo := b.Build()
	probe, err := topo.NewHost(itSub1)
	if err != nil {
		t.Fatal(err)
	}
	sameAS, err := topo.NewHost(itSub2)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := topo.NewHost(cnSub)
	if err != nil {
		t.Fatal(err)
	}
	return topo, probe, sameAS, remote
}

func TestObservations(t *testing.T) {
	topo, probe, sameAS, remote := buildTinyTopo(t)
	a := New(probe.Addr, DefaultConfig())
	ttlSame := uint8(128 - topo.HopCount(probe, sameAS))
	ttlRemote := uint8(128 - topo.HopCount(probe, remote))
	a.Consume(vid(1000, sameAS.Addr, probe.Addr, 1250, ttlSame))
	a.Consume(vid(int64(time.Millisecond)+1000, sameAS.Addr, probe.Addr, 1250, ttlSame))
	a.Consume(vid(2000, remote.Addr, probe.Addr, 1250, ttlRemote))

	probeSet := map[netip.Addr]bool{probe.Addr: true, sameAS.Addr: true}
	obs, unlocated := a.AppendObservations(nil, topo, probeSet)
	if unlocated != 0 {
		t.Fatalf("unlocated = %d", unlocated)
	}
	if len(obs) != 2 {
		t.Fatalf("observations = %d", len(obs))
	}
	byPeer := map[netip.Addr]core.Observation{}
	for _, o := range obs {
		byPeer[netip.AddrFrom4(o.Peer)] = o
	}
	so := byPeer[sameAS.Addr]
	if !so.SameAS || !so.SameCC || so.SameSubnet {
		t.Errorf("same-AS observation wrong: %+v", so)
	}
	if !so.PeerIsProbe {
		t.Error("probe-set membership lost")
	}
	if int(so.Hops) != topo.HopCount(probe, sameAS) {
		t.Errorf("hops = %d, want %d", so.Hops, topo.HopCount(probe, sameAS))
	}
	ro := byPeer[remote.Addr]
	if ro.SameAS || ro.SameCC || ro.PeerIsProbe {
		t.Errorf("remote observation wrong: %+v", ro)
	}
}

func TestObservationsSkipsUnlocatable(t *testing.T) {
	topo, probe, _, _ := buildTinyTopo(t)
	a := New(probe.Addr, DefaultConfig())
	alien := netip.AddrFrom4([4]byte{192, 0, 2, 9})
	a.Consume(sig(1000, alien, probe.Addr, 80, 100))
	obs, unlocated := a.AppendObservations(nil, topo, nil)
	if len(obs) != 0 || unlocated != 1 {
		t.Errorf("obs=%d unlocated=%d, want 0/1", len(obs), unlocated)
	}
}

func TestObservationsUnknownProbePanics(t *testing.T) {
	topo, _, _, _ := buildTinyTopo(t)
	a := New(netip.AddrFrom4([4]byte{192, 0, 2, 1}), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("unknown probe should panic")
		}
	}()
	a.AppendObservations(nil, topo, nil)
}

// TestAppendObservationsInPlace: appending a probe's rows into a slice with
// room for them allocates nothing and leaves the rows already there as they
// were.
func TestAppendObservationsInPlace(t *testing.T) {
	topo, probe, sameAS, remote := buildTinyTopo(t)
	a := New(probe.Addr, DefaultConfig())
	a.Consume(vid(1000, sameAS.Addr, probe.Addr, 1250, 110))
	a.Consume(vid(2000, probe.Addr, remote.Addr, 1250, 128))
	prefix := []core.Observation{
		{Probe: [4]byte{192, 0, 2, 1}, Peer: [4]byte{192, 0, 2, 2}, VideoUp: 7, Hops: 3, SameCC: true},
		{Probe: [4]byte{192, 0, 2, 3}, Peer: [4]byte{192, 0, 2, 4}, TotalDown: 9, Hops: -1, PeerIsProbe: true},
	}
	dst := make([]core.Observation, len(prefix), len(prefix)+a.PeerCount())
	copy(dst, prefix)
	probeSet := map[netip.Addr]bool{probe.Addr: true}
	var out []core.Observation
	allocs := testing.AllocsPerRun(10, func() {
		out, _ = a.AppendObservations(dst, topo, probeSet)
	})
	if allocs != 0 {
		t.Errorf("AppendObservations into a slice with room allocates %v times, want 0", allocs)
	}
	if len(out) != len(prefix)+2 || &out[0] != &dst[0] {
		t.Fatalf("appended %d rows (same array %v), want 2 in place", len(out)-len(prefix), &out[0] == &dst[0])
	}
	if !slices.Equal(out[:len(prefix)], prefix) {
		t.Errorf("prefix changed: %+v, want %+v", out[:len(prefix)], prefix)
	}
	if out[2].Peer != sameAS.Addr.As4() || out[3].Peer != remote.Addr.As4() || out[2].Probe != probe.Addr.As4() {
		t.Errorf("appended rows %+v, want %v then %v from probe %v", out[2:], sameAS.Addr, remote.Addr, probe.Addr)
	}
}

// End-to-end inference check: the min-IPG classifier applied to a real
// access.Train must recover the ground-truth link class.
func TestIPGClassifierAgainstTrainGroundTruth(t *testing.T) {
	cases := []struct {
		name   string
		up     units.BitRate
		highBw bool
	}{
		{"LAN100", 100 * units.Mbps, true},
		{"LAN20", 20 * units.Mbps, true},
		{"DSL-512k", 512 * units.Kbps, false},
		{"DSL-1.8M", 1800 * units.Kbps, false},
	}
	for _, c := range cases {
		a := New(probeAddr, DefaultConfig())
		sizes := access.Packetize(48 * units.KB)
		_, arrives := access.Train(sim.Time(time.Second), sizes, c.up,
			100*units.Mbps, 40*time.Millisecond, nil, 0)
		for i, at := range arrives {
			a.Consume(vid(int64(at), peerX, probeAddr, sizes[i], 108))
		}
		obs := core.Observation{MinIPG: peer(t, a, peerX).MinIPG}
		pref, ok := core.NewBWClassifier().Classify(obs)
		if !ok {
			t.Fatalf("%s: unmeasurable", c.name)
		}
		if pref != c.highBw {
			t.Errorf("%s: classified high-bw=%v, truth %v (IPG %v)",
				c.name, pref, c.highBw, peer(t, a, peerX).MinIPG)
		}
	}
}

func BenchmarkConsume(b *testing.B) {
	a := New(probeAddr, DefaultConfig())
	r := vid(0, peerX, probeAddr, 1250, 110)
	for i := 0; i < b.N; i++ {
		r.TS = sim.Time(i * 1000)
		a.Consume(r)
	}
}
