package analysis

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"napawine/internal/packet"
	"napawine/internal/units"
)

// Budgets for what a probe's table costs per remote it has seen, live once
// the records are consumed and allocated while consuming them, measured by
// TestProbeTableFootprint: 44 probes, 600 to 700 remotes each, as the
// two-minute PPLive run's probes see (28,299 remotes over 44 probes at
// seed 1). Each budget is the measurement plus 5 %, so a field on a row or a
// table that copies itself again cannot come back unnoticed.
//
// The all-video stream, every remote exchanging video, measures 74 B live
// and 89 B allocated per remote (alone, in the package run, under -race):
// a 24-byte row and a 32-byte video row for each remote, in blocks of 64
// (1,536 and 2,048 bytes, each a size class) that never move, beside a Go
// map from key to row. History: 82 B live and 97 B allocated while one
// 56-byte row held both, in blocks of 3,584 bytes that the allocator rounds
// up to 4,096; 109 B live and 231 B allocated while the rows were one slice
// grown by append (each doubling past 32 KB a large object, the old copy
// garbage) beside a second slice of keys.
const (
	tableLiveBudget  = 77
	tableAllocBudget = 93
)

// The run-shaped stream gives a video row to runVideoPerMille of each
// thousand remotes (1,881 of its 28,353): at seed 1, 1,810 of the two-minute
// PPLive run's 28,299 probe rows (6.4 %) carry video. It measures 43 B live
// and 58 B allocated per remote; 82 and 97 while every remote's row held the
// video fields.
const (
	runVideoPerMille    = 64
	runTableLiveBudget  = 45
	runTableAllocBudget = 60
)

// TestProbeTableFootprint fills one aggregator per probe with the records of
// its remotes, a few records each, in an order that mixes first sightings
// with repeat traffic, and measures the heap before and after: once with
// video to and from every remote, once with video to and from as many as in
// the run and only control packets with the rest.
func TestProbeTableFootprint(t *testing.T) {
	for _, c := range []struct {
		name        string
		perMille    int
		live, alloc uint64
	}{
		{"all-video", 1000, tableLiveBudget, tableAllocBudget},
		{"run-shaped", runVideoPerMille, runTableLiveBudget, runTableAllocBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			live, alloc := probeTableFootprint(t, c.perMille)
			if live > c.live {
				t.Errorf("%d B live per remote, budget %d", live, c.live)
			}
			if alloc > c.alloc {
				t.Errorf("%d B allocated per remote, budget %d", alloc, c.alloc)
			}
		})
	}
}

// probeTableFootprint measures the tables of 44 probes whose remotes
// exchange video perMille times in a thousand, and reports the bytes live
// and allocated per remote.
func probeTableFootprint(t *testing.T, perMille int) (live, alloc uint64) {
	const probes = 44
	// pick draws which remotes exchange video from a stream of its own, so
	// the addresses and the shuffle are the same at every share.
	rng, pick := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	type stream struct {
		probe   netip.Addr
		records []packet.Record
	}
	streams := make([]stream, probes)
	remotes, video := 0, 0
	for p := range streams {
		probe := netip.AddrFrom4([4]byte{10, 0, byte(p), 1})
		n := 600 + rng.Intn(101)
		remotes += n
		var recs []packet.Record
		for i := 0; i < n; i++ {
			remote := netip.AddrFrom4([4]byte{byte(20 + rng.Intn(200)), byte(rng.Intn(256)), byte(i >> 8), byte(i)})
			in, size := sig, units.ByteSize(80)
			if pick.Intn(1000) < perMille {
				in, size = vid, 1250
				video++
			}
			for k := 0; k < 4; k++ {
				recs = append(recs, in(int64(len(recs)), remote, probe, size, 110), sig(int64(len(recs)), probe, remote, 80, packet.InitialTTL))
			}
		}
		// Repeat traffic between first sightings: each record swaps with a
		// later one at random, keeping every remote's first record early
		// enough that the table grows throughout.
		for i := range recs {
			j := i + rng.Intn(min(64, len(recs)-i))
			recs[i], recs[j] = recs[j], recs[i]
		}
		streams[p] = stream{probe, recs}
	}
	heap := func() (live, total uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.TotalAlloc
	}
	tables := make([]*Aggregator, probes)
	liveBefore, totalBefore := heap()
	for p, s := range streams {
		tables[p] = New(s.probe, DefaultConfig())
		for _, r := range s.records {
			tables[p].Consume(r)
		}
	}
	liveAfter, totalAfter := heap()
	seen, videoRows := 0, 0
	for _, a := range tables {
		seen += a.PeerCount()
		videoRows += a.videoRows
	}
	runtime.KeepAlive(streams)
	if seen != remotes || videoRows != video {
		t.Fatalf("the tables saw %d remotes of %d, %d video rows of %d", seen, remotes, videoRows, video)
	}
	live = (liveAfter - liveBefore) / uint64(remotes)
	alloc = (totalAfter - totalBefore) / uint64(remotes)
	t.Logf("probe tables: %d B live, %d B allocated per remote (%d probes, %d remotes, %d exchanging video)", live, alloc, probes, remotes, video)
	return live, alloc
}
