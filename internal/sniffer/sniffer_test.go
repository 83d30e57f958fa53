package sniffer

import (
	"net/netip"
	"testing"

	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/units"
)

var (
	probe = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	peerA = netip.AddrFrom4([4]byte{10, 0, 1, 1})
	peerB = netip.AddrFrom4([4]byte{10, 0, 2, 1})
)

func rec(ts int64, src, dst netip.Addr, size units.ByteSize, kind packet.Kind) packet.Record {
	return packet.Record{TS: sim.Time(ts), Src: src, Dst: dst, Size: size, TTL: 120, Kind: kind}
}

func TestCaptureFanOut(t *testing.T) {
	c := New(probe)
	var m1, m2 MemorySink
	order := []int{}
	c.Attach(&m1)
	c.Attach(ConsumerFunc(func(packet.Record) { order = append(order, 2) }))
	c.Attach(&m2)

	c.Observe(rec(1, peerA, probe, 100, packet.Video))
	c.Observe(rec(2, probe, peerA, 50, packet.Signaling))

	if len(m1.Records) != 2 || len(m2.Records) != 2 {
		t.Fatalf("sinks got %d/%d records, want 2/2", len(m1.Records), len(m2.Records))
	}
	if c.Count() != 2 {
		t.Errorf("Count = %d", c.Count())
	}
	if len(order) != 2 {
		t.Errorf("func consumer fired %d times", len(order))
	}
	if c.Probe() != probe {
		t.Errorf("Probe = %v", c.Probe())
	}
}

func TestCaptureRejectsForeignTraffic(t *testing.T) {
	c := New(probe)
	defer func() {
		if recover() == nil {
			t.Error("foreign record should panic")
		}
	}()
	c.Observe(rec(1, peerA, peerB, 10, packet.Video))
}

func TestCaptureRejectsTimeRegression(t *testing.T) {
	c := New(probe)
	c.Observe(rec(100, peerA, probe, 10, packet.Video))
	defer func() {
		if recover() == nil {
			t.Error("timestamp regression should panic")
		}
	}()
	c.Observe(rec(99, peerA, probe, 10, packet.Video))
}

func TestCaptureSameTimestampOK(t *testing.T) {
	c := New(probe)
	c.Observe(rec(100, peerA, probe, 10, packet.Video))
	c.Observe(rec(100, probe, peerB, 10, packet.Video)) // equal TS allowed
	if c.Count() != 2 {
		t.Error("equal timestamps should be accepted")
	}
}

func TestNewRejectsNonIPv4(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IPv6 probe should panic")
		}
	}()
	New(netip.MustParseAddr("::1"))
}

func TestRemote(t *testing.T) {
	in := rec(1, peerA, probe, 10, packet.Video)
	r, inbound := Remote(in, probe)
	if r != peerA || !inbound {
		t.Errorf("Remote(in) = %v,%v", r, inbound)
	}
	out := rec(2, probe, peerB, 10, packet.Video)
	r, inbound = Remote(out, probe)
	if r != peerB || inbound {
		t.Errorf("Remote(out) = %v,%v", r, inbound)
	}
}

func TestTallySink(t *testing.T) {
	s := NewTallySink(probe)
	c := New(probe)
	c.Attach(s)
	c.Observe(rec(1, peerA, probe, 1000, packet.Video))   // video in
	c.Observe(rec(2, peerA, probe, 1000, packet.Video))   // video in
	c.Observe(rec(3, probe, peerA, 500, packet.Video))    // video out
	c.Observe(rec(4, peerB, probe, 80, packet.Signaling)) // signal in
	c.Observe(rec(5, probe, peerB, 40, packet.Request))   // request out

	if s.InBytes != 2080 || s.OutBytes != 540 {
		t.Errorf("bytes in/out = %d/%d", s.InBytes, s.OutBytes)
	}
}

func BenchmarkObserveFanOut(b *testing.B) {
	c := New(probe)
	c.Attach(NewTallySink(probe))
	var m MemorySink
	c.Attach(&m)
	r := rec(0, peerA, probe, 1250, packet.Video)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TS = sim.Time(i)
		c.Observe(r)
		if len(m.Records) > 1<<20 {
			m.Records = m.Records[:0]
		}
	}
}
