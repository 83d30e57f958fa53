package analysis

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"napawine/internal/packet"
)

// Budgets for what a probe's table costs per remote it has seen, live once
// the records are consumed and allocated while consuming them, measured by
// TestProbeTableFootprint: 44 probes, 600 to 700 remotes each, as the
// two-minute PPLive run's probes see (28,299 remotes over 44 probes at
// seed 1). It measures 82 B live and 97 B allocated per remote (alone, in
// the package run, under -race) with the rows in 64-row blocks that never
// move, each row carrying its key, beside a Go map from key to row. History:
// 109 B live and 231 B allocated while the rows were one slice grown by
// append (each doubling past 32 KB a large object, the old copy garbage)
// beside a second slice of keys. Each budget is the measurement plus 5 %, so
// a field on a row or a table that copies itself again cannot come back
// unnoticed.
const (
	tableLiveBudget  = 86
	tableAllocBudget = 101
)

// TestProbeTableFootprint fills one aggregator per probe with the records of
// its remotes, a few records each, in an order that mixes first sightings
// with repeat traffic, and measures the heap before and after.
func TestProbeTableFootprint(t *testing.T) {
	const probes = 44
	rng := rand.New(rand.NewSource(1))
	type stream struct {
		probe   netip.Addr
		records []packet.Record
	}
	streams := make([]stream, probes)
	remotes := 0
	for p := range streams {
		probe := netip.AddrFrom4([4]byte{10, 0, byte(p), 1})
		n := 600 + rng.Intn(101)
		remotes += n
		var recs []packet.Record
		for i := 0; i < n; i++ {
			remote := netip.AddrFrom4([4]byte{byte(20 + rng.Intn(200)), byte(rng.Intn(256)), byte(i >> 8), byte(i)})
			for k := 0; k < 4; k++ {
				recs = append(recs, vid(int64(len(recs)), remote, probe, 1250, 110), sig(int64(len(recs)), probe, remote, 80, packet.InitialTTL))
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
	seen := 0
	for _, a := range tables {
		seen += a.PeerCount()
	}
	runtime.KeepAlive(streams)
	if seen != remotes {
		t.Fatalf("the tables saw %d remotes of %d", seen, remotes)
	}
	live := (liveAfter - liveBefore) / uint64(remotes)
	alloc := (totalAfter - totalBefore) / uint64(remotes)
	t.Logf("probe tables: %d B live, %d B allocated per remote (%d probes, %d remotes)", live, alloc, probes, remotes)
	if live > tableLiveBudget {
		t.Errorf("%d B live per remote, budget %d", live, tableLiveBudget)
	}
	if alloc > tableAllocBudget {
		t.Errorf("%d B allocated per remote, budget %d", alloc, tableAllocBudget)
	}
}
