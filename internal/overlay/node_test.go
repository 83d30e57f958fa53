package overlay

import (
	"testing"
	"time"

	"napawine/internal/access"
	"napawine/internal/policy"
	"napawine/internal/sim"
)

// TestTicksUnderFourNanosecondsHaveNoJitter: a tick's jitter is drawn below
// a quarter of its interval in whole nanoseconds, so the shortest intervals
// Profile.Validate accepts (1–3 ns) draw none and tick exactly one interval
// apart. The node is alone in its world.
func TestTicksUnderFourNanosecondsHaveNoJitter(t *testing.T) {
	w := buildWorld(t, 3, 1, 0)
	nd := w.peers[0]
	prof := *nd.Profile
	prof.SignalingInterval, prof.ContactInterval, prof.DropInterval = 3, 3, 3
	nd.Profile = &prof
	var at []sim.Time
	w.eng.SetDispatch(func(r sim.Record) {
		if r.Kind == evSignaling {
			at = append(at, w.eng.Now())
		}
		w.net.dispatch(r)
	})
	nd.Join()
	w.eng.Run(300)
	for i, got := range at {
		if want := sim.Time(3 * (i + 1)); got != want {
			t.Fatalf("signalling tick %d at %v, want %v", i, got, want)
		}
	}
	if len(at) != 100 {
		t.Errorf("%d signalling ticks in 300 ns, want 100", len(at))
	}
}

// constWeight weighs every candidate alike.
type constWeight float64

func (c constWeight) Weight(policy.Info) float64 { return float64(c) }

// TestZeroDiscoveryWeightAdoptsNobody: gossip adopts a candidate with
// probability its discovery weight over a plain candidate's, at least. A
// policy that weighs every candidate at 0 is compared with 1 instead, so
// it adopts nobody; one that weighs every candidate alike adopts everybody.
func TestZeroDiscoveryWeightAdoptsNobody(t *testing.T) {
	w := buildWorld(t, 3, 3, 0)
	nd, c := w.peers[0], w.peers[1]
	prof := *nd.Profile
	for _, weight := range []constWeight{0, 0.5} {
		prof.DiscoveryWeight = weight
		nd.Profile = &prof
		adopted := 0
		for range 100 {
			if nd.adopts(c) {
				adopted++
			}
		}
		if want := map[constWeight]int{0: 0, 0.5: 100}[weight]; adopted != want {
			t.Errorf("weight %v: %d of 100 adopted, want %d", weight, adopted, want)
		}
	}
}

// TestTimeoutsDropAPartnerAtTheLimit: each expired request counts one
// failure against the partner it went to, and the expiry that brings the
// count to the limit drops the partnership on both sides: four failures,
// or congestionFailureLimit under the congestion model, which puts the
// partner in backoff at every timeout before that and raises its loss
// estimate.
func TestTimeoutsDropAPartnerAtTheLimit(t *testing.T) {
	for _, cong := range []bool{false, true} {
		cfg := testConfig()
		limit := 4
		if cong {
			cfg.Congestion = access.CongestionModel{QueueDepth: 64}
			limit = congestionFailureLimit
		}
		for _, before := range []int{limit - 2, limit - 1} {
			w := buildWorldCfg(t, 5, 8, 0, cfg)
			w.startAll()
			w.eng.Run(30 * time.Second)
			nd := w.peers[0]
			p := &nd.partners[0]
			other := w.net.nodes[p.id()]
			p.clearFailures()
			for range before {
				p.fail()
			}
			backoffs := w.net.LedgerView().BackoffsTotal
			now := w.eng.Now()
			id := w.net.Cfg.Calendar.LatestAt(now) + 1000
			nd.inflight = append(nd.inflight[:0], newRequest(nd.ID, id, other.ID, now.Add(-requestTimeout-1)))
			nd.scheduleTick()
			dropped := nd.partnerByID(other.ID) == nil
			if dropped != (before+1 >= limit) || dropped != (other.partnerByID(nd.ID) == nil) {
				t.Errorf("congestion %v: a timeout after %d failures: dropped here %v, there %v", cong, before, dropped, other.partnerByID(nd.ID) == nil)
			}
			if got := w.net.LedgerView().BackoffsTotal - backoffs; cong != (got == 1) {
				t.Errorf("congestion %v: the timeout put %d partners in backoff", cong, got)
			}
			// A kept partner's loss estimate moves toward 1, and its backoff
			// doubles with each failure in a row, up to 16 timeouts long.
			if i, kept := nd.partnerSearch(other.ID); cong && kept {
				c := (*nd.cong)[i]
				want := now.Add(requestTimeout << min(before, 4))
				if c.lossEWMA < 1-lossEWMARetain || c.backoffUntil != want {
					t.Errorf("after %d failures: loss estimate %v, backoff until %v; want at least %v, until %v",
						before+1, c.lossEWMA, c.backoffUntil, 1-lossEWMARetain, want)
				}
			}
		}
	}
}

// TestServeSkipsAnOfflineEnd: a request whose responder or requester left
// while it flew serves nothing, and the requester's entry stays until it
// expires; a request for a chunk the responder lacks is rejected and
// settled at once; with both online, the one chunk moves. Every tick chain
// is ended first, so the request is all that runs.
func TestServeSkipsAnOfflineEnd(t *testing.T) {
	for _, leaver := range []string{"", "responder", "requester", "unborn chunk"} {
		w := buildWorld(t, 5, 4, 0)
		w.startAll()
		w.eng.Run(30 * time.Second)
		for _, nd := range w.net.nodes {
			nd.epoch++
		}
		for w.eng.Step() {
		}
		peer, resp := w.peers[0], w.src // the source holds every chunk born
		id := w.net.Cfg.Calendar.LatestAt(w.eng.Now())
		if leaver == "unborn chunk" {
			id += 5
		}
		served := w.net.LedgerView().ChunksServedTotal
		peer.inflight = append(peer.inflight[:0], newRequest(peer.ID, id, resp.ID, w.eng.Now()))
		w.net.sendRequest(peer, resp, id)
		switch leaver {
		case "responder":
			resp.Leave()
		case "requester":
			peer.Leave()
			peer.inflight = append(peer.inflight, newRequest(peer.ID, id, resp.ID, 0))
		}
		for w.eng.Step() {
		}
		got, pending := w.net.LedgerView().ChunksServedTotal-served, peer.inflight.find(id) >= 0
		if (got == 1) != (leaver == "") || pending != (leaver == "responder" || leaver == "requester") {
			t.Errorf("%q: %d chunks served, request pending %v", leaver, got, pending)
		}
	}
}

// TestHandshakeRespectsAFullRemote: a handshake always introduces the two
// peers, and partners them only while both have room; a remote holding
// MaxPartners partners takes no more.
func TestHandshakeRespectsAFullRemote(t *testing.T) {
	w := buildWorld(t, 3, 4, 0)
	w.net.SetTrackerPaused(true) // joins form no partnerships
	nd, other := w.peers[0], w.peers[1]
	for _, p := range w.peers {
		p.Join()
	}
	prof := *other.Profile
	prof.MaxPartners = 2
	other.Profile = &prof
	for _, room := range []bool{true, false} {
		other.partners = append(other.partners[:0], partner{key: partnerKey(w.peers[2].ID)})
		if !room {
			other.partners = append(other.partners, partner{key: partnerKey(w.peers[3].ID)})
		}
		nd.partners = nd.partners[:0]
		nd.handshake(other)
		if got := nd.partnerByID(other.ID) != nil; got != room || other.partnerByID(nd.ID) != nil != room {
			t.Errorf("room at the remote %v: partnered %v", room, got)
		}
		if !nd.neighbors.contains(other.ID) || !other.neighbors.contains(nd.ID) {
			t.Errorf("room at the remote %v: the handshake left no neighbour entry", room)
		}
	}
}

// TestStarvedPeerIsChargedAfterTheGrace: a joining peer is charged no miss
// for the chunks due in its warm-up, 2·(PullDelay+pullWindow) chunk
// intervals, and one miss for each chunk due after it that it does not
// hold. The peer here has no partner, so it holds nothing: 20 s after the
// warm-up it has missed about 20 chunks, where charging the warm-up too
// would make it 48.
func TestStarvedPeerIsChargedAfterTheGrace(t *testing.T) {
	w := buildWorld(t, 3, 1, 0)
	w.net.SetTrackerPaused(true)
	nd := w.peers[0]
	w.eng.Run(time.Minute)
	nd.Join()
	grace := 2 * time.Duration(nd.Profile.PullDelay+pullWindow) * w.net.Cfg.Calendar.Interval()
	w.eng.Run(time.Minute + grace - time.Second)
	if nd.play.Missed() != 0 || nd.play.Delivered() != 0 {
		t.Errorf("in the warm-up: %d missed, %d delivered, want none", nd.play.Missed(), nd.play.Delivered())
	}
	w.eng.Run(time.Minute + grace + 20*time.Second)
	if m := nd.play.Missed(); m < 18 || m > 21 || nd.play.Delivered() != 0 || nd.Continuity() != 0 {
		t.Errorf("20 s after the warm-up: %d missed, %d delivered, continuity %v; want about 20 missed and none delivered",
			m, nd.play.Delivered(), nd.Continuity())
	}
}

// crossPair builds a 2-shard world with the tracker paused and returns a
// peer a, a peer x on the other shard, and a third peer d, both online.
func crossPair(t *testing.T) (w *world, a, x, d *Node) {
	w = buildWorldShards(t, 3, 4, 0, testConfig(), 2)
	w.net.SetTrackerPaused(true)
	a = w.peers[0]
	for _, p := range w.peers[1:] {
		if x == nil && !sameShard(a, p) {
			x = p
		} else if d == nil {
			d = p
		}
	}
	a.Join()
	x.Join()
	return w, a, x, d
}

// crossRounds runs a crossPair world for three one-way delays, before any
// node's first tick.
func crossRounds(w *world) { w.sh.Run(400 * time.Millisecond) }

// fill caps nd at one partner and gives it one, d.
func fill(nd, d *Node) {
	prof := *nd.Profile
	prof.MaxPartners, prof.PartnerTarget = 1, 1
	nd.Profile = &prof
	nd.partners = append(nd.partners, partner{key: partnerKey(d.ID)})
}

// TestCrossShardHandshakeOutcomes: across shards a handshake is an offer, a
// verdict and a completion, each a message. A full responder declines and
// neither side partners; an initiator that filled up while the verdict flew
// tears down the half the responder added.
func TestCrossShardHandshakeOutcomes(t *testing.T) {
	for _, full := range []string{"", "responder", "initiator"} {
		w, a, x, d := crossPair(t)
		a.handshake(x)
		switch full {
		case "responder":
			fill(x, d)
		case "initiator":
			fill(a, d)
		}
		crossRounds(w)
		ax, xa := a.partnerByID(x.ID) != nil, x.partnerByID(a.ID) != nil
		if want := full == ""; ax != want || xa != want {
			t.Errorf("%q full: initiator partnered %v, responder %v; want %v", full, ax, xa, want)
		}
	}
}

// TestCrossShardGossipAdoptsBelowTarget: gossip across shards asks for a
// partnership only while the initiator is below its partner target.
func TestCrossShardGossipAdoptsBelowTarget(t *testing.T) {
	for _, atTarget := range []bool{false, true} {
		w, a, x, d := crossPair(t)
		prof := *a.Profile
		prof.DiscoveryWeight, prof.PartnerTarget = constWeight(1), 1
		a.Profile = &prof
		if atTarget { // with room to spare
			a.partners = append(a.partners, partner{key: partnerKey(d.ID)})
		}
		a.gossipCross(x)
		crossRounds(w)
		if got := x.partnerByID(a.ID) != nil; got == atTarget || got != (a.partnerByID(x.ID) != nil) {
			t.Errorf("initiator at its target %v: partnered %v", atTarget, got)
		}
	}
}

// TestCrossShardKeepaliveIsAPingAndAPong: a keepalive across shards is two
// control packets, each counted once into the signalling total and seen by
// a probe at either end as it leaves and as it arrives.
func TestCrossShardKeepaliveIsAPingAndAPong(t *testing.T) {
	w, a, x, _ := crossPair(t)
	sa, sx := w.net.AttachSniffer(a), w.net.AttachSniffer(x)
	before := w.net.LedgerView().SignalTotal
	a.keepaliveCross(x)
	crossRounds(w)
	if got := w.net.LedgerView().SignalTotal - before; got != int64(2*keepaliveSize) {
		t.Errorf("signalling total +%d, want two keepalives of %d", got, int64(keepaliveSize))
	}
	if na, nx := sa.Counts().Staged, sx.Counts().Staged; na != 2 || nx != 2 {
		t.Errorf("probes saw %d and %d packets, want the ping and the pong at each end", na, nx)
	}
}

// TestTicksAllocateNothing: once a swarm is warm, a node's four periodic
// ticks and everything they set off (requests, serves, deliveries) run in
// the per-shard scratch buffers and allocate nothing. Every tick chain is
// ended first, so each round is the ticks called here and their events,
// and the node forgets its chunks before each, so each round requests.
func TestTicksAllocateNothing(t *testing.T) {
	w := buildWorld(t, 5, 12, 0)
	w.startAll()
	w.eng.Run(30 * time.Second)
	for _, nd := range w.net.nodes {
		nd.epoch++
	}
	for w.eng.Step() {
	}
	nd := w.peers[3]
	round := func() {
		nd.buf.Reset(nd.buf.Base()) // chunks to request again
		nd.signalingTick()
		nd.contactTick()
		nd.churnTick()
		nd.scheduleTick()
		for w.eng.Step() {
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("a round of the four ticks allocates %v times, want 0", allocs)
	}
}

// TestDeliveryLiftsBackoff: under the congestion model a delivery from a
// partner in backoff ends the backoff and decays its loss estimate, so the
// partner is selectable again at once.
func TestDeliveryLiftsBackoff(t *testing.T) {
	cfg := testConfig()
	cfg.Congestion = access.CongestionModel{QueueDepth: 64}
	w := buildWorldCfg(t, 5, 8, 0, cfg)
	w.startAll()
	w.eng.Run(30 * time.Second)
	nd := w.peers[0]
	now := w.eng.Now()
	(*nd.cong)[0] = partnerCong{lossEWMA: 1, backoffUntil: now.Add(time.Minute)}
	nd.onChunkDelivered(nd.partners[0].id(), w.net.Cfg.Calendar.LatestAt(now), 10*time.Millisecond)
	if c := (*nd.cong)[0]; c.backoffUntil != 0 || c.lossEWMA != lossEWMARetain {
		t.Errorf("after a delivery: backoff until %v, loss estimate %v; want 0, %v", c.backoffUntil, c.lossEWMA, lossEWMARetain)
	}
}

// TestSessionsStartWithNothingOutstanding: a session starts with no chunk
// request outstanding, in a set sized once for MaxInflight: the first
// session, and one after a Leave with requests in flight, alike.
func TestSessionsStartWithNothingOutstanding(t *testing.T) {
	w := buildWorld(t, 5, 2, 0)
	nd := w.peers[0]
	for session := range 2 {
		nd.Join()
		if len(nd.inflight) != 0 || cap(nd.inflight) != nd.Profile.MaxInflight {
			t.Errorf("session %d starts with %d of %d requests outstanding, want 0 of %d",
				session, len(nd.inflight), cap(nd.inflight), nd.Profile.MaxInflight)
		}
		nd.inflight = append(nd.inflight, newRequest(nd.ID, 7, w.src.ID, 0))
		nd.Leave()
	}
}
