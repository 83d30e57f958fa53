package overlay

import (
	"fmt"
	"time"

	"napawine/internal/access"
	"napawine/internal/chunkstream"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/topology"
	"napawine/internal/units"
)

// Node is one peer in the swarm.
type Node struct {
	net *Network
	// sc is the shard this node executes on: all of its events, randomness
	// and accounting flow through sc. With one shard it wraps the
	// network's engine and ledger. Assigned at AddNode from the host's AS
	// and never changed.
	sc *shardCtx
	// sc, spool, ID, isSource and online are what another node's tick reads
	// of this one, once per partner (partnerAlive, then sendControl): they
	// share the node's first 32 bytes, and so one cache line. spool is nil
	// unless the node carries a sniffer (AttachSniffer).
	spool    *sniffer.Spool
	ID       PeerID
	isSource bool
	online   bool
	// epoch numbers the node's sessions: Leave advances it, and a periodic
	// tick record carries the epoch of the session that posted it (tick).
	epoch int64

	Host    topology.Host
	Link    access.Link
	Profile *Profile

	up, down *access.Port

	buf  *chunkstream.BufferMap
	play *chunkstream.Playout

	// partners is the partner table: every partner record, by value, sorted
	// by peer id. The order is the membership record (partnerByID binary
	// searches it) and the deterministic iteration order of every loop that
	// consumes randomness or emits events; the greedy pass's best partner
	// and the churn drop's worst are each one scan of it. Carved once, at
	// the first Join, from the shard's current block (shardCtx.partnerTable)
	// with capacity MaxPartners, and never reallocated: the partner count
	// never exceeds MaxPartners, addPartner reslices rather than appends (a
	// reslice past the capacity panics rather than reach the next table in
	// the block), and slots past len are zero, so they pin no advert.
	// Leave clears the table in place.
	//
	// addPartner and removePartner shift records within the table, so a
	// *partner is valid only until the next add or remove on this node. The
	// sites that hold one keep to that: signalingTick (sends and aims views,
	// dropDeadPartners ran before), the expiry loop in scheduleTick (drops
	// the partner last), the greedy pass (requests only), requestChunk (holds
	// table positions only while it scores), onReject and onChunkDelivered
	// (rescore only re-weighs), and the cross-shard handlers
	// (pushBufferMapCross aims a view and returns).
	partners []partner
	inflight inflightSet
	// rateMemory persists per-remote delivery-rate estimates across
	// partnership episodes and across the node's own sessions.
	rateMemory rateMemo
	// cong is the congestion side table, entry for entry with partners:
	// allocated at the first Join, at MaxPartners entries, when the network's
	// congestion model is on, and nil otherwise. It sits behind a pointer
	// rather than a slice header to keep Node small.
	cong      *[]partnerCong
	neighbors neighborRing // contacted, remembered for keepalives (bounded)
	// advert is the buffer-map announcement of the current session, viewed
	// by every partner record aimed at it (partner.have). signalingTick
	// rewrites it in place; Join drops the reference, so the first tick of a
	// session publishes into a fresh allocation and a remote that has not
	// yet noticed a leave-and-rejoin keeps reading the last announcement of
	// the session it partnered with.
	advert chunkstream.Advert

	// blocked: connectivity lost (scenario partition): Join is deferred.
	// joinDeferred records a Join attempted while blocked, honoured at
	// Unblock — an arrival during a partition connects when the network
	// heals instead of being lost.
	blocked      bool
	joinDeferred bool
	// retired: the viewer is gone for good (scenario exodus): every later
	// Join — including the node's own churn cycle — is refused.
	retired bool
	// onlineIdx is the node's slot in its shard's live list; 32 bits, so it
	// shares a word with the three flags above.
	onlineIdx int32
	onlineAt  sim.Time
	// churnScale divides the churn cycle's holding-time draws: >1 makes
	// the node flap faster (scenario regional churn), 1 restores the
	// configured means. Zero (never set) means unscaled, so untouched
	// nodes stay byte-identical to builds without the knob.
	churnScale float64

	// baseSpec remembers the link's factory rates across SetLinkScale
	// calls; zero until the first throttle.
	baseSpec units.AccessSpec
}

// Online reports whether the node is currently participating.
func (nd *Node) Online() bool { return nd.online }

// Partners reports the current partner count.
func (nd *Node) Partners() int { return len(nd.partners) }

// Continuity reports the playout continuity achieved so far (1.0 before
// anything was due). Sources report 1.
func (nd *Node) Continuity() float64 {
	if nd.isSource || nd.play == nil {
		return 1
	}
	return nd.play.Continuity()
}

// IsSource reports whether this node is the stream origin.
func (nd *Node) IsSource() bool { return nd.isSource }

// hasChunk answers availability; the source holds everything already born.
func (nd *Node) hasChunk(id chunkstream.ChunkID, now sim.Time) bool {
	if nd.isSource {
		return id >= 0 && id <= nd.net.Cfg.Calendar.LatestAt(now)
	}
	return nd.buf != nil && nd.buf.Has(id)
}

// Join brings the node online: it resets buffers to the live edge, asks the
// tracker for candidates, forms initial partnerships and posts the first
// tick of each periodic activity, one full interval out. Each tick posts its
// own successor (tick) for as long as the session it belongs to lasts.
func (nd *Node) Join() {
	if nd.retired {
		return
	}
	if nd.blocked {
		nd.joinDeferred = true
		return
	}
	if nd.online {
		return
	}
	nd.online = true
	nd.onlineAt = nd.sc.eng.Now()
	nd.net.markOnline(nd)

	live := nd.net.Cfg.Calendar.LatestAt(nd.sc.eng.Now())
	base := live - chunkstream.ChunkID(nd.net.Cfg.BufferWindow)
	if base < 0 {
		base = 0
	}
	// Re-arm the session's episode state in place: buffer map, playout
	// tracker, partner table and the inflight set (Leave emptied both) are
	// recycled across join/leave cycles, so a node that flaps for the whole
	// experiment allocates its hot state once. The advert is the exception:
	// it belongs to the session (see Node.advert).
	if nd.buf == nil {
		nd.buf = chunkstream.NewBufferMap(base, nd.net.Cfg.BufferWindow)
	} else {
		nd.buf.Reset(base)
	}
	start := live - chunkstream.ChunkID(nd.Profile.PullDelay)
	if start < 0 {
		start = 0
	}
	if nd.play == nil {
		nd.play = chunkstream.NewPlayout(start)
	} else {
		nd.play.Reset(start)
	}
	nd.advert = chunkstream.Advert{}
	if nd.partners == nil {
		nd.partners = nd.sc.partnerTable(nd.Profile.MaxPartners)
		nd.inflight = make(inflightSet, 0, nd.Profile.MaxInflight)
		if nd.net.congestionOn() {
			cong := make([]partnerCong, nd.Profile.MaxPartners)
			nd.cong = &cong
		}
	}
	nd.neighbors.reset()

	nd.refillPartners()

	eng := nd.sc.eng
	rec := sim.Record{Node: int32(nd.ID), A: nd.epoch}
	for kind := evSignaling; kind <= evChurn; kind++ {
		if kind == evSchedule && nd.isSource {
			continue
		}
		rec.Kind = kind
		eng.Post(nd.tickInterval(kind), rec)
	}
}

// tickInterval is the profile's period for one of the four periodic kinds.
func (nd *Node) tickInterval(kind sim.Kind) time.Duration {
	switch kind {
	case evSignaling:
		return nd.Profile.SignalingInterval
	case evSchedule:
		return scheduleInterval
	case evContact:
		return nd.Profile.ContactInterval
	default:
		return nd.Profile.DropInterval
	}
}

// tick executes one periodic record and posts its successor, a full interval
// plus a uniform jitter of up to a quarter interval later, so peers do not
// phase-lock. A record whose epoch is not the node's belongs to a session
// that has ended: it fires this once, draws nothing and posts nothing, which
// is how a tick chain dies — nothing is cancelled. Only Leave advances the
// epoch and clears online, so a tick that runs finds its node online, and no
// tick leaves.
func (nd *Node) tick(r sim.Record) {
	if nd.epoch != r.A {
		return
	}
	switch r.Kind {
	case evSignaling:
		nd.signalingTick()
	case evSchedule:
		nd.scheduleTick()
	case evContact:
		nd.contactTick()
	default:
		nd.churnTick()
	}
	next := nd.tickInterval(r.Kind)
	if jitter := next / 4; jitter > 0 {
		next += time.Duration(nd.sc.eng.Rand().Int63n(int64(jitter)))
	}
	nd.sc.eng.Post(next, r)
}

// Leave takes the node offline and ends the session: advancing the epoch
// orphans the four tick chains, each of which dies at its next firing (tick).
// Partner state at remote peers decays lazily: their next interaction
// notices the absence.
func (nd *Node) Leave() {
	// A leave ends the session whether or not it ever materialized: a
	// deferred join whose session would already be over must not fire.
	nd.joinDeferred = false
	if !nd.online {
		return
	}
	nd.online = false
	nd.epoch++
	nd.net.markOffline(nd)
	// Partners on this shard observe the online flag lazily, as always.
	// Cross-shard partners cannot, so the departure travels to them as a
	// message after the pair's one-way delay.
	for i := range nd.partners {
		if other := nd.net.nodes[nd.partners[i].id()]; !sameShard(nd, other) {
			nd.net.crossRemovePartner(nd, other)
		}
	}
	// Clear the partner table in place; the next Join reuses it. A cleared
	// record pins no advert of a finished session.
	clear(nd.partners)
	nd.partners = nd.partners[:0]
	nd.inflight = nd.inflight[:0]
}

// Retire takes the node offline for good: the viewer switched the program
// off, so neither its churn cycle nor any scheduled Join brings it back.
// This is what makes a scenario's mass exodus permanent instead of a dip
// the background churn quietly refills.
func (nd *Node) Retire() {
	nd.Leave()
	nd.retired = true
}

// Retired reports whether the node has permanently left.
func (nd *Node) Retired() bool { return nd.retired }

// Block models the node losing network connectivity (an AS or country
// partition): it is forced offline immediately and every Join attempt —
// scheduled arrivals, churn cycles — is deferred until Unblock. Idempotent.
func (nd *Node) Block() {
	nd.Leave()
	nd.blocked = true
}

// Unblock restores connectivity. A Join attempted during the blocked
// window (a scenario arrival, a churn-cycle rejoin) fires now; a node that
// was simply offline stays offline — the caller decides whether the
// partition's victims reconnect at once (Join) or drift back with their
// own churn cycles.
func (nd *Node) Unblock() {
	nd.blocked = false
	if nd.joinDeferred {
		nd.joinDeferred = false
		nd.Join()
	}
}

// Blocked reports whether the node is currently partitioned off.
func (nd *Node) Blocked() bool { return nd.blocked }

// SetLinkScale throttles (or restores) the node's access link: both
// directions run at factor × the original capacity from now on. factor 1
// restores the factory rates; factors are absolute, not cumulative.
// Transfers already booked keep their completion times. The scaled rates
// govern packet-train timing too, so throttling is visible to the paper's
// IPG-based bandwidth inference exactly like a genuinely slower peer.
func (nd *Node) SetLinkScale(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("overlay: non-positive link scale %v", factor))
	}
	if nd.baseSpec.Up == 0 {
		nd.baseSpec = nd.Link.Spec
	}
	scale := func(r units.BitRate) units.BitRate {
		s := units.BitRate(float64(r) * factor)
		if s < 64*units.Kbps { // floor: a link below this would starve even signaling
			s = 64 * units.Kbps
		}
		return s
	}
	nd.Link.Spec.Up = scale(nd.baseSpec.Up)
	nd.Link.Spec.Down = scale(nd.baseSpec.Down)
	nd.up.SetRate(nd.Link.Spec.Up)
	nd.down.SetRate(nd.Link.Spec.Down)
}

// SetChurnScale scales the node's churn rate from now on: holding-time
// draws of its churn cycle (both on- and off-phases) are divided by factor,
// so factor 3 makes the node flap three times as often. Factor 1 restores
// the configured means; factors are absolute, not cumulative, and apply
// from the next draw — sessions already running keep their end times.
// Scaling changes only the multiplier, never the number of RNG draws, so
// determinism is preserved event-for-event.
func (nd *Node) SetChurnScale(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("overlay: non-positive churn scale %v", factor))
	}
	nd.churnScale = factor
}

// ChurnScale reports the current churn-rate multiplier (1 when never set).
func (nd *Node) ChurnScale() float64 {
	if nd.churnScale <= 0 {
		return 1
	}
	return nd.churnScale
}

// ScheduleJoin posts the node's arrival after the given delay, on the node's
// own shard engine — the arrival form experiment setup uses, so a sharded
// run places every join on the engine that owns the node while the delay
// itself can come from any RNG the caller likes.
func (nd *Node) ScheduleJoin(after time.Duration) {
	nd.sc.eng.Post(after, sim.Record{Kind: evArrive, Node: int32(nd.ID)})
}

// ScheduleChurn makes the node cycle online/offline with exponential
// holding times; permanent probe nodes simply never call this. The first
// join happens after `firstJoin`.
func (nd *Node) ScheduleChurn(firstJoin time.Duration, meanOn, meanOff time.Duration) {
	nd.sc.eng.Post(firstJoin, sim.Record{Kind: evArrive, Node: int32(nd.ID), Peer: 1, A: int64(meanOn), B: int64(meanOff)})
}

// churnCycle executes an arrival or a departure. A lone arrival
// (ScheduleJoin) joins and is done; in a churn cycle an arrival posts the
// session's departure and a departure the next arrival, each after a
// holding time drawn around the cycle's mean on- or off-time.
func (nd *Node) churnCycle(r sim.Record) {
	mean := r.B
	if r.Kind == evArrive {
		// A retired viewer's chain dies here: rescheduling it would burn
		// events and RNG draws on refused joins for the rest of the run.
		if nd.retired {
			return
		}
		nd.Join()
		if r.Peer == 0 {
			return
		}
		r.Kind, mean = evDepart, r.A
	} else {
		nd.Leave()
		if nd.retired {
			return
		}
		r.Kind = evArrive
	}
	nd.sc.eng.Post(nd.holdingTime(time.Duration(mean)), r)
}

// holdingTime draws one exponential holding time around mean, divided by the
// node's churn scale, capped at ten means and floored at a second.
func (nd *Node) holdingTime(mean time.Duration) time.Duration {
	if s := nd.churnScale; s > 0 {
		mean = time.Duration(float64(mean) / s)
	}
	d := time.Duration(nd.sc.eng.Rand().ExpFloat64() * float64(mean))
	// Cap before floor: under a heavy churn scale the 10×-mean cap can
	// sit below one second, and the floor is the documented guarantee.
	return max(min(d, 10*mean), time.Second)
}

// infoFor assembles the policy-visible facts about a remote node, for weight
// w to read. Like partner.info, it computes the RTT only when w can read one
// (readsRTT) and otherwise leaves it 0, which w ignores.
func (nd *Node) infoFor(other *Node, w policy.Weight) policy.Info {
	info := policy.Info{
		SameSubnet: nd.Host.Subnet == other.Host.Subnet,
		SameAS:     nd.Host.AS == other.Host.AS,
		SameCC:     nd.Host.Country == other.Host.Country,
	}
	if readsRTT(w) {
		info.RTT = nd.net.Topo.RTT(nd.Host, other.Host)
	}
	return info
}

// rescore refreshes the cached request weight of partner p after its
// delivery-rate estimate moved. This is the single invalidation door:
// locality facts never change, so the cache stays exact as long as each
// rate mutation ends here.
func (nd *Node) rescore(p *partner) {
	w := nd.Profile.RequestWeight
	p.reqW = w.Weight(p.info(nd, w))
}

// refillPartners queries the tracker and adopts candidates, weighted by the
// profile's DiscoveryWeight, until the partner target is met.
func (nd *Node) refillPartners() {
	need := nd.Profile.PartnerTarget - len(nd.partners)
	if need <= 0 {
		return
	}
	cands := nd.net.trackerSample(nd, nd.net.Cfg.TrackerBatch)
	scorer := &nd.sc.scorer
	scorer.Reset()
	w := nd.Profile.DiscoveryWeight
	for i, c := range cands {
		if nd.partnerByID(c.ID) != nil {
			continue
		}
		if !c.Link.AcceptsFrom(nd.Link) {
			continue
		}
		scorer.Push(policy.Candidate{Index: i, Info: nd.infoFor(c, w)}, w)
	}
	for _, pick := range scorer.Sample(nd.sc.eng.Rand(), need) {
		nd.handshake(cands[pick.Index])
	}
}

// handshake performs the two-packet introduction and, when the remote has
// room, establishes a partnership. Every handshake also records the remote
// in the neighbor list (the "contacted peers" population). The node is
// refilling below its target, so it has room; the remote is a tracker
// candidate: online, and never the node itself. A remote on another shard
// goes through the two-phase message exchange instead (shard.go);
// same-shard pairs keep the synchronous form.
func (nd *Node) handshake(other *Node) {
	if !sameShard(nd, other) {
		nd.handshakeCross(other)
		return
	}
	nd.net.sendSignal(nd, other, handshakeSize)
	nd.net.sendSignal(other, nd, handshakeSize)
	nd.rememberNeighbor(other.ID)
	other.rememberNeighbor(nd.ID)
	if len(other.partners) >= other.Profile.MaxPartners {
		return
	}
	nd.addPartner(other)
	other.addPartner(nd)
}

func (nd *Node) dropPartner(id PeerID) {
	nd.removePartner(id)
	if other := nd.net.NodeByID(id); sameShard(nd, other) {
		other.removePartner(nd.ID)
	} else {
		nd.net.crossRemovePartner(nd, other)
	}
}

func (nd *Node) rememberNeighbor(id PeerID) {
	nd.neighbors.remember(id, nd.Profile.NeighborListMax)
}

// contactTick gossips with one fresh random peer: handshake packets plus a
// peer-exchange message whose size grows with the neighbor list. This is
// what makes aggressive clients (PPLive) observe enormous peer populations.
func (nd *Node) contactTick() {
	cands := nd.net.trackerSample(nd, DefaultContactFanout)
	for _, c := range cands {
		if nd.partnerByID(c.ID) != nil {
			continue
		}
		if !access.Reachable(nd.Link, c.Link) {
			continue
		}
		if !sameShard(nd, c) {
			nd.gossipCross(c)
			break // one gossip exchange per tick
		}
		// Peer exchange both ways, list length capped per message.
		mine := min(nd.neighbors.len(), gossipMaxEntries)
		theirs := min(c.neighbors.len(), gossipMaxEntries)
		nd.net.sendSignal(nd, c, gossipHeader+gossipPerPeer*units.ByteSize(mine))
		nd.net.sendSignal(c, nd, gossipHeader+gossipPerPeer*units.ByteSize(theirs))
		nd.rememberNeighbor(c.ID)
		c.rememberNeighbor(nd.ID)
		// Adopt as partner when short-handed.
		if len(nd.partners) < nd.Profile.PartnerTarget && len(c.partners) < c.Profile.MaxPartners && nd.adopts(c) {
			nd.addPartner(c)
			c.addPartner(nd)
		}
		break // one gossip exchange per tick
	}
}

// adopts is the discovery policy as an accept/reject filter relative to a
// uniform candidate: c is taken outright when it weighs at least what a
// candidate with no locality and no rate does, and otherwise with
// probability the ratio of the two. A policy that weighs such a candidate
// at 0 is compared with 1 instead.
func (nd *Node) adopts(c *Node) bool {
	dw := nd.Profile.DiscoveryWeight
	w := dw.Weight(nd.infoFor(c, dw))
	base := dw.Weight(policy.Info{})
	if base <= 0 {
		base = 1
	}
	return w >= base || nd.sc.eng.Rand().Float64() < w/base
}

// partnerAlive reports whether a partner, the remote node other, should be
// treated as present. Same-shard partners expose their online flag directly;
// a cross-shard partner is presumed alive until its departure notification
// arrives — membership in the partner set implies a believed-online peer. A
// remote that vanished ungracefully is shed by the failure escalation
// (timeouts drive failures past the drop threshold), like a silent peer on
// the real network.
func (nd *Node) partnerAlive(other *Node) bool {
	if other.sc == nd.sc {
		return other.online
	}
	return true
}

// dropDeadPartners forgets partners that went offline. Collect-then-drop
// keeps the iteration off the table while it mutates. Cross-shard partners
// are presumed alive here — their departures arrive as messages
// (crossRemovePartner) instead of being observed.
func (nd *Node) dropDeadPartners() {
	dead := nd.sc.dropIDs[:0]
	for i := range nd.partners {
		if id := nd.partners[i].id(); !nd.partnerAlive(nd.net.nodes[id]) {
			dead = append(dead, id)
		}
	}
	nd.sc.dropIDs = dead
	for _, id := range dead {
		nd.dropPartner(id)
	}
}

// signalingTick announces the node's buffer map to each partner and
// keepalives a random slice of the neighbor list. The announcement is one
// rewrite of the node's advert, whatever the partner count: partners on this
// shard already view it and learn the new holdings through the rewrite (the
// signalling packet is still sent and accounted per partner); only a row
// marked announce costs a search of the remote's table, once.
func (nd *Node) signalingTick() {
	nd.dropDeadPartners()
	nd.advert = nd.buf.Publish(nd.advert)
	size := nd.buf.WireSize() + 40 // header overhead
	// Cross-shard partners receive a clone of this tick's advert (one
	// clone shared by all of them): the advert will be rewritten, on this
	// shard's goroutine, before their messages arrive.
	var crossAd chunkstream.Advert
	for i := range nd.partners {
		p := &nd.partners[i]
		other := nd.net.nodes[p.id()]
		if !sameShard(nd, other) {
			if crossAd == (chunkstream.Advert{}) {
				crossAd = nd.advert.Clone()
			}
			nd.pushBufferMapCross(other, size, crossAd)
			continue
		}
		nd.net.sendSignal(nd, other, size)
		if p.announce() {
			p.setAnnounce(false)
			if remote := other.partnerByID(nd.ID); remote != nil {
				remote.have = nd.advert
			}
		}
	}
	// Keepalives to a bounded random subset of remembered neighbors.
	fan := nd.Profile.KeepaliveFanout
	rng := nd.sc.eng.Rand()
	for i := 0; i < fan && nd.neighbors.len() > 0; i++ {
		id := nd.neighbors.at(rng.Intn(nd.neighbors.len()))
		other := nd.net.NodeByID(id)
		if !sameShard(nd, other) {
			nd.keepaliveCross(other)
			continue
		}
		if other.online {
			nd.net.sendSignal(nd, other, keepaliveSize)
			nd.net.sendSignal(other, nd, keepaliveSize)
		}
	}
}

// churnTick drops the least valuable partner (by the profile's retain
// weight) once the set is full, then refills. Replacing the weakest
// contributor with a fresh candidate is the adaptation loop that
// concentrates traffic on high-bandwidth peers.
func (nd *Node) churnTick() {
	nd.dropDeadPartners()
	if len(nd.partners) >= nd.Profile.PartnerTarget {
		scorer := &nd.sc.scorer
		scorer.Reset()
		// Worst reads only the index and the weight, so the candidate
		// carries no Info.
		retain := nd.Profile.RetainWeight
		for i := range nd.partners {
			p := &nd.partners[i]
			scorer.PushScored(policy.Candidate{Index: int(p.id())}, retain.Weight(p.info(nd, retain)))
		}
		worst := scorer.Worst()
		if worst.Index >= 0 {
			nd.dropPartner(PeerID(worst.Index))
		}
	}
	nd.refillPartners()
}

// scheduleTick is the pull scheduler: advance the window, account playout,
// and issue chunk requests for missing pieces in the pull range.
func (nd *Node) scheduleTick() {
	if nd.isSource { // a peer promoted to source keeps its scheduler's ticks
		return
	}
	now := nd.sc.eng.Now()
	cal := nd.net.Cfg.Calendar
	live := cal.LatestAt(now)
	p := nd.Profile

	// Slide the buffer window to track the live edge.
	base := live - chunkstream.ChunkID(nd.net.Cfg.BufferWindow) + 4
	if base < 0 {
		base = 0
	}
	if base > nd.buf.Base() {
		nd.buf.Advance(base)
	}

	// Playout deadline: PullDelay+pullWindow chunks behind live.
	deadline := live - chunkstream.ChunkID(p.PullDelay+pullWindow)
	if deadline > nd.play.Next() {
		start := nd.onlineAt
		// Grace: do not charge misses for chunks due before we had a
		// realistic chance to fetch them (join warm-up).
		if now.Sub(start) > 2*time.Duration(p.PullDelay+pullWindow)*cal.Interval() {
			nd.play.CatchUp(nd.buf, deadline)
		} else {
			for nd.play.Next() < deadline {
				if nd.buf.Has(nd.play.Next()) {
					nd.play.CatchUp(nd.buf, nd.play.Next()+1)
				} else {
					nd.play.Skip()
				}
			}
		}
	}

	// Expire stale requests, in id order for deterministic RNG consumption.
	// Positions in the set shift as the loop removes and retransmits, so
	// each id is looked up again; nothing in the loop touches another
	// expired id's request.
	sc := nd.sc
	sc.expired = nd.inflight.expiredInto(sc.expired, now, requestTimeout)
	cong := nd.net.congestionOn()
	for _, id := range sc.expired {
		at := nd.inflight.find(id)
		req := nd.inflight[at]
		nd.inflight.removeAt(at)
		if i, ok := nd.partnerSearch(req.from); ok {
			pr := &nd.partners[i]
			pr.fail()
			pr.setRate(pr.rate()/2, nd.ID) // stale partner loses standing
			if cong {
				// A timeout is the requester's only evidence of a tail
				// drop: absorb it into the partner's observed-loss EWMA
				// and hold requests off the partner for an exponentially
				// growing window.
				c := &(*nd.cong)[i]
				c.lossEWMA = c.lossEWMA*lossEWMARetain + (1 - lossEWMARetain)
				shift := min(pr.failures()-1, 4)
				c.backoffUntil = now.Add(requestTimeout << shift)
				sc.ledger.BackoffsTotal++
			}
			nd.rescore(pr)
			limit := 4
			if cong {
				limit = congestionFailureLimit
			}
			if pr.failures() >= limit {
				nd.dropPartner(req.from)
			}
		}
		if cong && id >= nd.play.Next() && !nd.buf.Has(id) {
			// Retransmit the lost chunk right away (from another partner —
			// the loser is in backoff) instead of waiting for the shopping
			// pass to rediscover it.
			if nd.requestChunk(id, now) {
				sc.ledger.RetransmitsTotal++
			}
		}
	}

	// Request missing chunks. Order matters enormously for swarm health —
	// pure oldest-first makes every peer fetch each chunk at the last
	// moment, so no one holds it early enough to serve others and the
	// source becomes the only provider. The ordering itself is the
	// profile's ChunkStrategy (urgent-random by default); the scheduler
	// only assembles the candidate window.
	lo := live - chunkstream.ChunkID(p.PullDelay+pullWindow)
	hi := live - chunkstream.ChunkID(p.PullDelay)
	if lo < nd.play.Next() {
		lo = nd.play.Next()
	}
	budget := p.MaxInflight - len(nd.inflight)

	// Greedy pass: fill from the single best partner first — the selectable
	// partner of highest request weight. Whatever the best partner
	// advertises and we miss, we take from it directly; this is what
	// converts a selection *weight* into a byte-share *preference*
	// observable in traces.
	if p.BestFill > 0 && budget > 0 {
		if best := nd.bestPartner(now); best != nil {
			target := nd.net.nodes[best.id()]
			fill := p.BestFill
			for id := lo; id <= hi && fill > 0 && budget > 0; id++ {
				if nd.buf.Has(id) {
					continue
				}
				if nd.inflight.find(id) >= 0 {
					continue
				}
				if !best.have.Has(id) {
					continue
				}
				nd.inflight = append(nd.inflight, newRequest(nd.ID, id, best.id(), now))
				nd.net.sendRequest(nd, target, id)
				fill--
				budget--
			}
		}
	}

	// The shopping pass covers only the older portion of the window when
	// a greedy pass is configured: young chunks get a grace period in
	// which the preferred partner may advertise them, instead of being
	// snapped up from whoever happens to hold them first. Without
	// BestFill the full window is shopped.
	shopHi := hi
	if p.BestFill > 0 {
		shopHi = lo + chunkstream.ChunkID(2*pullWindow/3)
		if shopHi > hi {
			shopHi = hi
		}
	}
	needHolders := p.ChunkStrategy.NeedHolders()
	urgentEdge := lo + chunkstream.ChunkID(pullWindow/3)
	refs := sc.refs[:0]
	for id := lo; id <= shopHi; id++ {
		if nd.buf.Has(id) {
			continue
		}
		if nd.inflight.find(id) >= 0 {
			continue
		}
		ref := policy.ChunkRef{ID: int64(id), Urgent: id < urgentEdge}
		if needHolders {
			ref.Holders = nd.countHolders(id, now)
		}
		refs = append(refs, ref)
	}
	sc.refs = refs
	p.ChunkStrategy.Order(sc.eng.Rand(), refs)
	for _, ref := range refs {
		if budget <= 0 {
			break
		}
		if nd.requestChunk(chunkstream.ChunkID(ref.ID), now) {
			budget--
		}
	}
}

// countHolders reports how many selectable partners advertise id — the
// rarity signal consumed by holder-aware chunk strategies.
func (nd *Node) countHolders(id chunkstream.ChunkID, now sim.Time) int {
	n := 0
	for i := range nd.partners {
		p := &nd.partners[i]
		other := nd.net.nodes[p.id()]
		if !nd.partnerAlive(other) {
			continue
		}
		if (other.isSource && other.hasChunk(id, now)) || p.have.Has(id) {
			n++
		}
	}
	return n
}

// bestPartner returns the online, non-source partner with the highest
// request weight, nil when no such partner has a positive one. The scan runs
// in id order and takes only a strictly higher weight, so ties go to the
// lowest id and a NaN weight is never chosen. Under the congestion model,
// partners in backoff at now are skipped.
func (nd *Node) bestPartner(now sim.Time) *partner {
	cong := nd.net.congestionOn()
	var best *partner
	bestW := 0.0
	for i := range nd.partners {
		p := &nd.partners[i]
		if !(p.reqW > bestW) {
			continue
		}
		if other := nd.net.nodes[p.id()]; !nd.partnerAlive(other) || other.isSource {
			continue
		}
		if cong && (*nd.cong)[i].backoffUntil > now {
			continue
		}
		best, bestW = p, p.reqW
	}
	return best
}

// requestChunk picks a partner advertising id (the source counts as always
// advertising) using the cached request weights and sends the request.
// Reports whether a request went out. Under the congestion model, partners
// in backoff are excluded, and a congestion-aware strategy additionally
// discounts each candidate by its observed-loss EWMA — the bandwidth-aware
// weighting that separates "aware" hybrids (a > 0) from agnostic ones in the
// awareness ablation.
func (nd *Node) requestChunk(id chunkstream.ChunkID, now sim.Time) bool {
	cong := nd.net.congestionOn()
	var aware float64
	if cong {
		aware = nd.Profile.ChunkStrategy.AwareWeight
	}
	sc := nd.sc
	scorer := &sc.scorer
	scorer.Reset()
	order := sc.reqOrder[:0]
	for i := range nd.partners {
		p := &nd.partners[i]
		other := nd.net.nodes[p.id()]
		if !nd.partnerAlive(other) {
			continue
		}
		var c *partnerCong
		if cong {
			if c = &(*nd.cong)[i]; c.backoffUntil > now {
				continue
			}
		}
		// A client only knows what the partner advertised; the single
		// exception is the source, which everyone knows holds the feed.
		if (other.isSource && other.hasChunk(id, now)) || p.have.Has(id) {
			w := p.reqW
			if aware > 0 {
				w *= policy.LossPenalty(c.lossEWMA, aware)
			}
			// PickOne reads only the index and the weight: no Info is built.
			scorer.PushScored(policy.Candidate{Index: len(order)}, w)
			order = append(order, int32(i))
		}
	}
	sc.reqOrder = order
	pick := scorer.PickOne(sc.eng.Rand())
	if pick.Index < 0 {
		return false
	}
	target := nd.net.nodes[nd.partners[order[pick.Index]].id()]
	nd.inflight = append(nd.inflight, newRequest(nd.ID, id, target.ID, now))
	nd.net.sendRequest(nd, target, id)
	return true
}
