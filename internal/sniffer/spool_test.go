package sniffer

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/units"
)

// recordSpool is the spool as it was before records were staged in a compact
// form — whole packet.Records, stable-sorted and handed on as they are — kept
// as the reference model the staged spool must agree with.
type recordSpool struct{ recs []packet.Record }

func (s *recordSpool) add(r packet.Record) { s.recs = append(s.recs, r) }

// drainBefore returns, in delivery order, the records stamped before cutoff
// and keeps the rest.
func (s *recordSpool) drainBefore(cutoff int64) []packet.Record {
	slices.SortStableFunc(s.recs, func(a, b packet.Record) int { return cmp.Compare(a.TS, b.TS) })
	i, _ := slices.BinarySearchFunc(s.recs, cutoff, func(r packet.Record, c int64) int { return cmp.Compare(int64(r.TS), c) })
	out := slices.Clone(s.recs[:i])
	s.recs = append(s.recs[:0], s.recs[i:]...)
	return out
}

// TestSpoolStagesExactly stages every shape of record the overlay emits —
// control packets as sent (the node's own clock, the initial TTL) and as
// received (a later instant, the TTL the path left), in both directions, for
// each kind, and the packets of a video train — together with the extremes of
// each field's domain, and requires both drains to hand the capture exactly
// what the reference model hands it: every field of every record, in the same
// order.
func TestSpoolStagesExactly(t *testing.T) {
	far := netip.AddrFrom4([4]byte{255, 255, 255, 254})
	low := netip.AddrFrom4([4]byte{0, 0, 0, 1})
	var shapes []packet.Record
	for _, remote := range []netip.Addr{peerA, peerB, far, low} {
		for _, kind := range []packet.Kind{packet.Signaling, packet.Request, packet.Video} {
			for _, size := range []units.ByteSize{0, 1, 40, 64, 1250, 48000, 1<<16 - 1, 1 << 16, 70000, 1<<31 - 1, 1 << 31} {
				shapes = append(shapes,
					packet.Record{Src: probe, Dst: remote, Size: size, TTL: packet.InitialTTL, Kind: kind},
					packet.Record{Src: remote, Dst: probe, Size: size, TTL: packet.InitialTTL - 17, Kind: kind},
					packet.Record{Src: remote, Dst: probe, Size: size, TTL: 0, Kind: kind},
					packet.Record{Src: remote, Dst: probe, Size: size, TTL: 255, Kind: kind})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	var s Spool
	var ref recordSpool
	var m MemorySink
	c := New(probe)
	c.Attach(&m)
	var want []packet.Record
	now := int64(0)
	for round := 0; round < 4; round++ {
		// Like the overlay, nothing is staged behind the instant of the
		// last periodic drain; everything else about the order is free.
		for _, r := range shapes {
			r.TS = sim.Time(now + rng.Int63n(3000))
			s.Add(r)
			ref.add(r)
		}
		last := packet.Record{TS: math.MaxInt64, Src: probe, Dst: far, Size: 1 << 31, TTL: 255, Kind: packet.Video}
		s.Add(last)
		ref.add(last)
		now += 1000
		s.DrainBefore(c, now)
		want = append(want, ref.drainBefore(now)...)
		if s.Len() != len(ref.recs) {
			t.Fatalf("round %d: %d records left staged, the reference keeps %d", round, s.Len(), len(ref.recs))
		}
	}
	s.Drain(c)
	want = append(want, ref.drainBefore(math.MaxInt64)...)
	want = append(want, ref.recs...) // the four stamped MaxInt64 itself
	if s.Len() != 0 {
		t.Errorf("%d records left after Drain", s.Len())
	}
	if len(m.Records) != len(want) {
		t.Fatalf("capture saw %d records, the reference delivers %d", len(m.Records), len(want))
	}
	for i := range want {
		if m.Records[i] != want[i] {
			t.Fatalf("record %d: capture saw %+v, staged was %+v", i, m.Records[i], want[i])
		}
	}
}

// TestSpoolRejectsWhatATraceCannotHold: the staged form has the binary
// trace's domain, and a record outside it is a bug in whoever built it — Add
// panics and names the record.
func TestSpoolRejectsWhatATraceCannotHold(t *testing.T) {
	v6 := netip.MustParseAddr("2001:db8::1")
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:10.0.0.1").As16())
	for _, bad := range []packet.Record{
		{TS: 7, Src: v6, Dst: probe, Size: 100},
		{TS: 7, Src: probe, Dst: v6, Size: 100},
		{TS: 7, Src: probe, Dst: mapped, Size: 100},
		{TS: 7, Src: probe, Dst: netip.Addr{}, Size: 100},
		{TS: 7, Src: peerA, Dst: probe, Size: -1},
		{TS: 7, Src: peerA, Dst: probe, Size: 1<<31 + 1},
		{TS: 7, Src: peerA, Dst: probe, Size: 1 << 40},
	} {
		func() {
			var s Spool
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("%+v", bad)) {
					t.Errorf("Add(%+v): panic %q does not name the record", bad, msg)
				}
				if s.Len() != 0 {
					t.Errorf("Add(%+v) staged the record", bad)
				}
			}()
			s.Add(bad)
		}()
	}
}

// TestStagedRecordIsSmallAndPointerFree holds the two properties the spool's
// cost rests on: 24 bytes, and nothing in it for the collector to follow — a
// later field must not quietly bring back the write barriers that sorting and
// compacting whole packet.Records paid.
func TestStagedRecordIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(staged{}); size > 24 {
		t.Errorf("staged record is %d bytes, want at most 24", size)
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
			t.Errorf("%s is a %s: the collector would scan every staged record", path, ty.Kind())
		}
	}
	walk("staged", reflect.TypeOf(staged{}))
}

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
