package sniffer

import (
	"math/rand"
	"testing"

	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/units"
)

func TestSpoolSortsBeforeDrain(t *testing.T) {
	var s Spool
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s.Add(rec(rng.Int63n(10000), peerA, probe, 100, packet.Video))
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s.Drain(c) // would panic on regression if unsorted
	if len(m.Records) != 500 {
		t.Fatalf("drained %d", len(m.Records))
	}
	for i := 1; i < len(m.Records); i++ {
		if m.Records[i].TS < m.Records[i-1].TS {
			t.Fatal("drained records not sorted")
		}
	}
	if s.Len() != 0 {
		t.Error("spool not emptied")
	}
}

func TestSpoolStableForEqualTimestamps(t *testing.T) {
	var s Spool
	s.Add(rec(5, peerA, probe, 1, packet.Video))
	s.Add(rec(5, peerB, probe, 2, packet.Video))
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s.Drain(c)
	if m.Records[0].Size != 1 || m.Records[1].Size != 2 {
		t.Error("equal-timestamp order not preserved")
	}
}

// TestSpoolKeepsEmissionOrderWithinInstant stages many records over a few
// instants — long enough that the sort merges blocks instead of insertion
// sorting — each tagged with its staging index. A stable sort has exactly
// one result, (timestamp, staging index) ascending, and both drains must
// deliver it.
func TestSpoolKeepsEmissionOrderWithinInstant(t *testing.T) {
	for _, before := range []bool{false, true} {
		var s Spool
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 600; i++ {
			s.Add(rec(rng.Int63n(7), peerA, probe, units.ByteSize(i), packet.Video))
		}
		c := New(probe)
		var m MemorySink
		c.Attach(&m)
		if before {
			s.DrainBefore(c, 4)
		}
		s.Drain(c)
		if len(m.Records) != 600 {
			t.Fatalf("before=%v: drained %d", before, len(m.Records))
		}
		for i := 1; i < len(m.Records); i++ {
			a, b := m.Records[i-1], m.Records[i]
			if a.TS > b.TS || (a.TS == b.TS && a.Size >= b.Size) {
				t.Fatalf("before=%v: record %d (ts %d, staged %d) follows (ts %d, staged %d)",
					before, i, b.TS, b.Size, a.TS, a.Size)
			}
		}
	}
}

func TestDrainBefore(t *testing.T) {
	var s Spool
	for _, ts := range []int64{30, 10, 50, 20, 40} {
		s.Add(rec(ts, peerA, probe, 1, packet.Video))
	}
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s.DrainBefore(c, 35)
	if len(m.Records) != 3 {
		t.Fatalf("drained %d, want 3", len(m.Records))
	}
	if s.Len() != 2 {
		t.Fatalf("left %d, want 2", s.Len())
	}
	// Remaining records still drain correctly afterwards.
	s.Add(rec(35, peerB, probe, 1, packet.Signaling))
	s.Drain(c)
	if len(m.Records) != 6 {
		t.Fatalf("total drained %d, want 6", len(m.Records))
	}
	for i := 1; i < len(m.Records); i++ {
		if m.Records[i].TS < m.Records[i-1].TS {
			t.Fatal("regression across DrainBefore/Drain boundary")
		}
	}
}

func TestDrainBeforeEmpty(t *testing.T) {
	var s Spool
	c := New(probe)
	s.DrainBefore(c, 100)
	s.Drain(c)
	if c.Count() != 0 {
		t.Error("empty spool should feed nothing")
	}
}

func BenchmarkSpoolDrain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base := int64(0)
	for i := 0; i < b.N; i++ {
		var s Spool
		for j := 0; j < 1000; j++ {
			s.Add(rec(base+rng.Int63n(1000), peerA, probe, 100, packet.Video))
		}
		c := New(probe)
		s.Drain(c)
		base += 2000
		_ = sim.Time(base)
	}
}
