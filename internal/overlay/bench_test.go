package overlay

import (
	"testing"
	"time"

	"napawine/internal/chunkstream"
)

// benchSwarm warms a miniature swarm into steady state so the hot-path
// micro-benchmarks below measure selection against realistic partner sets,
// buffer maps and rate estimates rather than empty structures.
func benchSwarm(b *testing.B) *world {
	b.Helper()
	w := buildWorld(b, 1, 40, 4)
	w.startAll()
	w.eng.Run(45 * time.Second)
	return w
}

// pickPeer returns an online, well-connected non-source peer.
func pickPeer(b *testing.B, w *world) *Node {
	b.Helper()
	var best *Node
	for _, p := range w.peers {
		if p.Online() && (best == nil || p.Partners() > best.Partners()) {
			best = p
		}
	}
	if best == nil || best.Partners() == 0 {
		b.Fatal("warmup produced no connected peer")
	}
	return best
}

// BenchmarkRequestChunk measures one per-chunk selection round: walk the
// id-ordered partner index, assemble the advertising candidates with their
// cached request weights, and draw one weighted pick. This ran four
// allocations deep before the incremental index (fresh sorted slice,
// candidate slice, order slice, weight slice, boxed pending request) and one
// until the serve event became a record; steady state is allocation-free.
func BenchmarkRequestChunk(b *testing.B) {
	w := benchSwarm(b)
	nd := pickPeer(b, w)
	now := w.eng.Now()
	live := w.net.Cfg.Calendar.LatestAt(now)
	// A chunk in the pull window some partner advertises; the exact id
	// matters less than the candidate scan it triggers.
	id := live - chunkstream.ChunkID(nd.Profile.PullDelay)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if nd.requestChunk(id, now) {
			nd.inflight.removeAt(nd.inflight.find(id))
		}
	}
}

// BenchmarkChurnTick measures one partner-churn round: sweep dead
// partners, weigh each partner's retain weight and drop the worst, query the
// tracker and adopt replacements through the discovery sampler — the full
// adaptation loop, previously dominated by per-call sorting and map
// allocation.
func BenchmarkChurnTick(b *testing.B) {
	w := benchSwarm(b)
	nd := pickPeer(b, w)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nd.churnTick()
	}
}
