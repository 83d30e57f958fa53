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
	"time"
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
	var ref recordSpool
	var m MemorySink
	c := New(probe)
	c.Attach(&m)
	s := NewSpool(c)
	var want []packet.Record
	now := int64(0)
	for round := 0; round < 4; round++ {
		// Like the overlay, nothing is staged behind the instant it is
		// staged at; everything else about the order is free.
		for _, r := range shapes {
			r.TS = sim.Time(now + rng.Int63n(3000))
			s.Add(r, sim.Time(now))
			ref.add(r)
		}
		last := packet.Record{TS: math.MaxInt64, Src: probe, Dst: far, Size: 1 << 31, TTL: 255, Kind: packet.Video}
		s.Add(last, sim.Time(now))
		ref.add(last)
		now += 1000
		s.DrainBefore(sim.Time(now))
		want = append(want, ref.drainBefore(now)...)
		if s.Len() != len(ref.recs) {
			t.Fatalf("round %d: %d records left staged, the reference keeps %d", round, s.Len(), len(ref.recs))
		}
	}
	s.Drain()
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

// TestSpoolRejectsWhatATraceCannotHold: the staged form holds IPv4
// addresses and sizes in [0, 1<<31], and a record outside that is a bug in
// whoever built it — Add panics and names the record.
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
			s := NewSpool(New(probe))
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("%+v", bad)) {
					t.Errorf("Add(%+v): panic %q does not name the record", bad, msg)
				}
				if s.Len() != 0 {
					t.Errorf("Add(%+v) staged the record", bad)
				}
			}()
			s.Add(bad, 0)
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
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s := NewSpool(c)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s.Add(rec(rng.Int63n(10000), peerA, probe, 100, packet.Video), 0)
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Drain() // would panic on regression if unsorted
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
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s := NewSpool(c)
	s.Add(rec(5, peerA, probe, 1, packet.Video), 0)
	s.Add(rec(5, peerB, probe, 2, packet.Video), 0)
	s.Drain()
	if m.Records[0].Size != 1 || m.Records[1].Size != 2 {
		t.Error("equal-timestamp order not preserved")
	}
}

// TestSpoolKeepsEmissionOrderWithinInstant stages many records over a few
// instants — disordered enough that the insertion pass gives up and the
// stable sort merges blocks — each tagged with its staging index. A stable sort has exactly
// one result, (timestamp, staging index) ascending, and both drains must
// deliver it.
func TestSpoolKeepsEmissionOrderWithinInstant(t *testing.T) {
	for _, before := range []bool{false, true} {
		c := New(probe)
		var m MemorySink
		c.Attach(&m)
		s := NewSpool(c)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 600; i++ {
			s.Add(rec(rng.Int63n(7), peerA, probe, units.ByteSize(i), packet.Video), 0)
		}
		if before {
			s.DrainBefore(4)
		}
		s.Drain()
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
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s := NewSpool(c)
	for _, ts := range []int64{30, 10, 50, 20, 40} {
		s.Add(rec(ts, peerA, probe, 1, packet.Video), 0)
	}
	s.DrainBefore(35)
	if len(m.Records) != 3 {
		t.Fatalf("drained %d, want 3", len(m.Records))
	}
	if s.Len() != 2 {
		t.Fatalf("left %d, want 2", s.Len())
	}
	// Remaining records still drain correctly afterwards.
	s.Add(rec(35, peerB, probe, 1, packet.Signaling), 35)
	s.Drain()
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
	c := New(probe)
	s := NewSpool(c)
	s.DrainBefore(100)
	s.Drain()
	if c.Count() != 0 {
		t.Error("empty spool should feed nothing")
	}
}

// TestSpoolHighWaterTracksInFlight feeds a probe's stage the way a steady
// swarm does — every tick an event stages a train whose records are stamped
// across the next horizon — with nothing but Add draining it, for 10 virtual
// seconds and then for 100. The most the stage ever holds must be the same
// for both lengths, and at most twice the records that can be in flight at
// once (rate × horizon, plus the train being staged): the stage is bounded
// by what is in flight, not by how long the run is or how often anyone
// flushes. A stage drained every 10 s would hold rate × 10 s = 5,000.
func TestSpoolHighWaterTracksInFlight(t *testing.T) {
	const (
		tick    = 10 * time.Millisecond
		train   = 5 // records staged per tick: 500 a second
		horizon = 2 * time.Second
		rate    = int(time.Second/tick) * train
		bound   = 2 * (rate*int(horizon/time.Second) + train)
	)
	highWater := func(length time.Duration) int {
		c := New(probe)
		var staged uint64
		high := 0
		s := NewSpool(c)
		for now := sim.Time(0); now < sim.Time(length); now += sim.Time(tick) {
			for j := 0; j < train; j++ {
				ts := now + sim.Time(int64(horizon)*int64(j)/train)
				src, dst := peerA, probe
				if j%2 == 1 {
					src, dst = probe, peerB
				}
				high = max(high, s.Len()+1) // the peak: inside Add, appended, not yet drained
				s.Add(rec(int64(ts), src, dst, 1250, packet.Video), now)
				staged++
			}
		}
		s.Drain()
		if c.Count() != staged {
			t.Fatalf("%v: capture saw %d records of %d staged", length, c.Count(), staged)
		}
		return high
	}
	short, long := highWater(10*time.Second), highWater(100*time.Second)
	t.Logf("stage high-water %d over 10 s, %d over 100 s (bound %d)", short, long, bound)
	if short != long {
		t.Errorf("stage high-water grew with the run: %d over 10 s, %d over 100 s", short, long)
	}
	if long > bound {
		t.Errorf("stage high-water %d, want at most %d", long, bound)
	}
}

// checkDrainSchedule stages n records obeying the emission rule — instants
// never decrease, and a record is stamped at or after the instant it is
// staged at — with draws that make equal timestamps common (records stamped
// at the instant itself, a small horizon) and some stamped far beyond every
// instant; it drains at random instants along the way and finishes with
// Drain. However the drains fell, the capture must have seen exactly what one
// stable sort of the whole stream, drained at once, gives it. Each record's
// size is its staging index, so a reordered tie shows. It reports how many
// records Add drained on its own, and the spool's counts.
func checkDrainSchedule(t testing.TB, seed int64, n int, step, horizon int64, drainEvery, farEvery int) (selfDrained uint64, counts Counts) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New(probe)
	var m MemorySink
	c.Attach(&m)
	s := NewSpool(c)
	stream := make([]packet.Record, 0, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			now += rng.Int63n(step + 1)
		}
		ts := now
		switch {
		case farEvery > 0 && rng.Intn(farEvery) == 0:
			ts = math.MaxInt64 - rng.Int63n(2)
		case rng.Intn(4) > 0:
			ts += rng.Int63n(horizon + 1)
		}
		r := rec(ts, peerA, probe, units.ByteSize(i), packet.Video)
		if rng.Intn(2) == 0 {
			r.Src, r.Dst, r.Kind = probe, peerB, packet.Signaling
		}
		stream = append(stream, r)
		before := c.Count()
		s.Add(r, sim.Time(now))
		selfDrained += c.Count() - before
		if drainEvery > 0 && rng.Intn(drainEvery) == 0 {
			now += rng.Int63n(step + 1)
			s.DrainBefore(sim.Time(now))
		}
	}
	s.Drain()
	want := slices.Clone(stream)
	slices.SortStableFunc(want, func(a, b packet.Record) int { return cmp.Compare(a.TS, b.TS) })
	if len(m.Records) != len(want) {
		t.Fatalf("capture saw %d records, %d were staged", len(m.Records), len(want))
	}
	for i := range want {
		if m.Records[i] != want[i] {
			t.Fatalf("record %d: capture saw %+v, one sort of the stream puts %+v there", i, m.Records[i], want[i])
		}
	}
	return selfDrained, s.Counts()
}

// TestSpoolDrainsItselfInOrder runs the drain-schedule check on a few fixed
// streams, long enough that Add drains many times, and requires that it did,
// and that the streams took both the insertion pass and its fallback.
func TestSpoolDrainsItselfInOrder(t *testing.T) {
	var all Counts
	for _, tc := range []struct {
		seed                 int64
		step, horizon        int64
		drainEvery, farEvery int
	}{
		{1, 100, 3000, 0, 0},      // drained by Add alone
		{2, 1000, 100, 400, 0},    // short horizon, ties everywhere, periodic drains
		{3, 10, 100000, 500, 20},  // long horizon, far-future records
		{4, 0, 0, 0, 7},           // one instant throughout: nothing is final before Drain
		{5, 5000, 5000, 2000, 50}, // records final almost as soon as staged
	} {
		got, counts := checkDrainSchedule(t, tc.seed, 5000, tc.step, tc.horizon, tc.drainEvery, tc.farEvery)
		if want := tc.step > 0; (got > 0) != want {
			t.Errorf("%+v: Add drained %d records on its own, want some: %v", tc, got, want)
		}
		if counts.Staged != 5000 {
			t.Errorf("%+v: %d records counted staged, 5000 were", tc, counts.Staged)
		}
		all.Moved += counts.Moved
		all.Fallbacks += counts.Fallbacks
	}
	if all.Moved == 0 || all.Fallbacks == 0 {
		t.Errorf("the streams moved %d slots by insertion and fell back %d times: a path went untested", all.Moved, all.Fallbacks)
	}
}

// FuzzSpoolDrainSchedule lets the fuzzer choose the stream, its length, how
// fast instants advance, how far ahead records are stamped, and how often
// the stage is drained from outside and stamped at the end of time.
func FuzzSpoolDrainSchedule(f *testing.F) {
	f.Add(int64(1), uint16(3000), uint16(100), uint32(3000), uint8(0), uint8(0))
	f.Add(int64(2), uint16(2000), uint16(1000), uint32(100), uint8(50), uint8(0))
	f.Add(int64(3), uint16(4000), uint16(10), uint32(100000), uint8(200), uint8(20))
	f.Add(int64(4), uint16(600), uint16(0), uint32(0), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, step uint16, horizon uint32, drainEvery, farEvery uint8) {
		checkDrainSchedule(t, seed, int(n)%5000+1, int64(step), int64(horizon), int(drainEvery), int(farEvery))
	})
}

// BenchmarkSpoolDrain stages uniformly random timestamps, which no run
// produces: nearly every drain takes the fallback sort, so this measures its
// cost, the insertion pass's wasted budget included.
func BenchmarkSpoolDrain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base := int64(0)
	var s *Spool
	for i := 0; i < b.N; i++ {
		s = NewSpool(New(probe))
		for j := 0; j < 1000; j++ {
			s.Add(rec(base+rng.Int63n(1000), peerA, probe, 100, packet.Video), sim.Time(base))
		}
		s.Drain()
		base += 2000
	}
	reportCounts(b, s)
}

// BenchmarkSpoolDrainNearSorted stages what a probe's stage holds in a run:
// ascending 39-packet chunk trains, a packet every 0.1 ms (1,250 bytes at
// 100 Mbit/s), interleaved with control records stamped at the instant that
// emits them, the event clock advancing half a millisecond on average between
// emissions. A control record lands behind the tail of any train still in
// flight, and Add drains as the stage fills.
func BenchmarkSpoolDrainNearSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	now := int64(0)
	var s *Spool
	for i := 0; i < b.N; i++ {
		s = NewSpool(New(probe))
		for n := 0; n < 1000; {
			if rng.Intn(8) == 0 {
				for k := int64(0); k < 39 && n < 1000; k, n = k+1, n+1 {
					s.Add(rec(now+k*int64(100*time.Microsecond), peerA, probe, 1250, packet.Video), sim.Time(now))
				}
			} else {
				s.Add(rec(now, probe, peerB, 100, packet.Signaling), sim.Time(now))
				n++
			}
			now += rng.Int63n(int64(time.Millisecond))
		}
		s.Drain()
	}
	reportCounts(b, s)
}

// reportCounts reports the last iteration's insertion moves per staged
// record and its fallback sorts.
func reportCounts(b *testing.B, s *Spool) {
	c := s.Counts()
	b.ReportMetric(float64(c.Moved)/float64(c.Staged), "moves/record")
	b.ReportMetric(float64(c.Fallbacks), "fallbacks/op")
}
