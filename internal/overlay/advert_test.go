package overlay

import (
	"slices"
	"testing"
	"time"

	"napawine/internal/chunkstream"
)

// sees reports which of ids the partner record's view lists.
func sees(p *partner, ids ...chunkstream.ChunkID) []chunkstream.ChunkID {
	var out []chunkstream.ChunkID
	for _, id := range ids {
		if p.have.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

func wantSees(t *testing.T, when string, p *partner, ids []chunkstream.ChunkID, want ...chunkstream.ChunkID) {
	t.Helper()
	if got := sees(p, ids...); !slices.Equal(got, want) {
		t.Errorf("%s: record sees %v of %v, want %v", when, got, ids, want)
	}
}

// TestAdvertViewRules walks one pair through the life of a shared view on
// the serial engine, calling the ticks directly so that nothing else runs
// in between. The tracker is paused: the only partnerships are the ones the
// test forms. Each step is a place where a view behaves differently from
// the private copy it replaced unless a rule makes up for it.
func TestAdvertViewRules(t *testing.T) {
	w := buildWorld(t, 3, 2, 0)
	w.net.SetTrackerPaused(true)
	a, x := w.peers[0], w.peers[1]
	a.Join()
	x.Join()
	ids := []chunkstream.ChunkID{40, 50, 51, 52}

	// (i) A partnership formed between two signalling ticks sees nothing,
	// whatever the remote holds, until the remote's next tick.
	a.buf.Set(50)
	a.signalingTick() // A has published, to nobody
	x.handshake(a)
	xa, ax := x.partnerByID(a.ID), a.partnerByID(x.ID)
	if xa == nil || ax == nil {
		t.Fatal("handshake formed no partnership")
	}
	if xa.have != (chunkstream.Advert{}) || ax.have != (chunkstream.Advert{}) {
		t.Fatal("a new record starts with a view")
	}
	wantSees(t, "before A's tick", xa, ids)
	x.signalingTick() // X's row for A is announced and its flag cleared
	a.signalingTick()
	wantSees(t, "after A's tick", xa, ids, 50)
	if xa.have != a.advert {
		t.Error("same-shard record does not view the sender's live advert")
	}
	if ax.announce() || xa.announce() {
		t.Error("announce flags survive the tick that served them")
	}
	// From here on the rewrite is the announcement: holdings gained between
	// ticks show at the next tick and not before.
	a.buf.Set(51)
	wantSees(t, "between A's ticks", xa, ids, 50)
	a.signalingTick()
	wantSees(t, "after A's second tick", xa, ids, 50, 51)
	checkPartnerTable(t, a)
	checkPartnerTable(t, x)

	// (ii) A leaves and rejoins before X sweeps its dead partners. X's
	// record is stale but A is online again, so X keeps using it — and it
	// must keep answering from A's last announcement of the old session,
	// not from the new session's advert.
	a.Leave()
	a.Join()
	a.buf.Set(52)
	a.signalingTick()
	if x.partnerByID(a.ID) != xa {
		t.Fatal("X's record of A did not survive A's leave and rejoin")
	}
	wantSees(t, "stale record, A in a new session", xa, ids, 50, 51)
	if a.partnerByID(x.ID) != nil {
		t.Fatal("A's new session already knows X")
	}

	// (iii) A fresh handshake: A creates its row, X finds its row already
	// there. Both must be announced again — X's flag was cleared long ago,
	// and only the duplicate add can know A's side is new.
	x.buf.Set(40)
	a.handshake(x)
	ax = a.partnerByID(x.ID)
	if ax == nil || x.partnerByID(a.ID) != xa {
		t.Fatal("re-handshake did not pair A's new row with X's old one")
	}
	if !xa.announce() {
		t.Error("duplicate add left X's row unannounced")
	}
	wantSees(t, "A's new row before X's tick", ax, ids)
	wantSees(t, "X's old row before A's tick", xa, ids, 50, 51)
	x.signalingTick()
	a.signalingTick()
	wantSees(t, "A's new row after X's tick", ax, ids, 40)
	wantSees(t, "X's old row after A's tick", xa, ids, 52)
	checkPartnerTable(t, a)
	checkPartnerTable(t, x)

	// A removed record leaves nothing pinned past the table's length: the
	// slot it vacated gives up its view with everything else.
	x.dropPartner(a.ID)
	if len(x.partners) != 0 || xa != &x.partners[:1][0] || xa.have != (chunkstream.Advert{}) || xa.key != 0 {
		t.Error("the vacated slot still holds a view or an id")
	}
	checkPartnerTable(t, x)
}

// TestAdvertViewRulesAcrossShards is the same walk for a pair on two
// shards, driven through the engine because the exchanges are messages.
// The view is of the copy a push carried, never of the sender's live
// advert, which another goroutine rewrites.
func TestAdvertViewRulesAcrossShards(t *testing.T) {
	w := buildWorldShards(t, 3, 4, 0, testConfig(), 2)
	w.net.SetTrackerPaused(true)
	a := w.peers[0]
	var x *Node
	for _, p := range w.peers[1:] {
		if !sameShard(a, p) {
			x = p
			break
		}
	}
	if x == nil {
		t.Fatal("fixture put every peer on one shard")
	}
	ids := []chunkstream.ChunkID{50, 51, 52}
	// Signalling ticks fire a second after each Join and then every
	// 1–1.25 s; messages take one one-way delay, far below the gaps the
	// steps leave.
	if owd := w.topo.OneWayDelay(a.Host, x.Host); owd > 100*time.Millisecond {
		t.Fatalf("fixture one-way delay %v too long for the timeline below", owd)
	}
	at := func(d time.Duration) { w.sh.Run(d) }

	a.Join()
	x.Join()
	x.handshake(a)
	at(900 * time.Millisecond)

	// (i) Partnered, A holds a chunk, A has not ticked yet.
	xa := x.partnerByID(a.ID)
	if xa == nil || a.partnerByID(x.ID) == nil {
		t.Fatal("cross-shard handshake formed no partnership")
	}
	a.buf.Set(50)
	if xa.have != (chunkstream.Advert{}) {
		t.Fatal("a new record starts with a view")
	}
	at(1900 * time.Millisecond)
	wantSees(t, "after A's first push", xa, ids, 50)
	if xa.have == a.advert {
		t.Fatal("cross-shard record views the sender's live advert")
	}

	// (ii) A leaves and rejoins at once. Until the departure notice lands,
	// X's record answers from the last push; A's new session shows nowhere.
	a.buf.Set(51)
	a.Leave()
	a.Join()
	a.buf.Set(52)
	wantSees(t, "departure notice in flight", xa, ids, 50)

	// (iii) X asks again. The notice removes the stale record first, the
	// handshake then creates a new one, blind until A's next push.
	x.handshake(a)
	at(2800 * time.Millisecond)
	xa = x.partnerByID(a.ID)
	if xa == nil || a.partnerByID(x.ID) == nil {
		t.Fatal("second cross-shard handshake formed no partnership")
	}
	if xa.have != (chunkstream.Advert{}) {
		t.Fatal("re-created record starts with a view")
	}
	at(3800 * time.Millisecond)
	wantSees(t, "after the new session's first push", xa, ids, 52)
	checkPartnerTable(t, a)
	checkPartnerTable(t, x)
}
