package experiment

import (
	"runtime"
	"testing"
	"time"

	"napawine/internal/scenario"
)

// perPeerHeapBudget bounds what a 2 000-peer PPLive swarm adds to the live
// heap, per peer, with every peer joined: topology, nodes, partner records,
// adverts, neighbour lists, ledger columns and queued events together. It
// measures 2 734 to 2 752 B (alone, in the package run, under -race) with
// each node's partner records held by value in one id-ordered table of
// MaxPartners 32-byte slots, each viewing its remote's advert through one
// pointer to a fixed-width block and naming its remote in 24 bits of a word
// shared with its flags; each neighbour list bit-packed at 11 bits an entry;
// each rate memory a sorted run of 16-byte entries; each queued event 40
// bytes, in 1 KB slabs; each probe's remotes in 24-byte rows, with a 32-byte
// video row only for those it exchanged video with; and Node in the 320-byte
// size class. History: 13 645 B
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
// every probe row 56 bytes.
// Five virtual seconds in, 106 of the 2 093 neighbour lists are long enough
// to own a 256-byte membership filter: 14 B a peer of the measurement. The
// budget (3 625 → 3 342 → 2 889)
// is the measurement plus 5 %, so a seventh of a KB of per-node state cannot
// come back unnoticed.
const perPeerHeapBudget = 2_889

// TestPerPeerFootprint measures from inside the run, at the first series
// sample after the join ramp, while the whole swarm is still reachable.
func TestPerPeerFootprint(t *testing.T) {
	const peers = 2000
	cfg := Default("PPLive")
	cfg.World.Peers = peers
	cfg.Duration = 5 * time.Second
	cfg.BackgroundJoinWindow = 3 * time.Second
	steady, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = steady // series samples, and with them OnSample, need one
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap() // whatever earlier tests of the package left reachable
	var heap uint64
	var online int
	cfg.OnSample = func(s SeriesSample) {
		if heap == 0 && s.T >= 4*time.Second {
			heap, online = liveHeap()-before, s.Online
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if online < peers {
		t.Fatalf("measured with %d of %d peers online", online, peers)
	}
	perPeer := heap / peers
	t.Logf("live heap %d B per peer", perPeer)
	if perPeer > perPeerHeapBudget {
		t.Errorf("live heap %d B per peer (%d KB in all), budget %d", perPeer, heap>>10, perPeerHeapBudget)
	}
}
