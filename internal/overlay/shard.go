package overlay

import (
	"time"

	"napawine/internal/chunkstream"
	"napawine/internal/packet"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/units"
)

// Cross-shard interaction layer.
//
// The serial overlay leans on shared memory in three ways that a sharded
// run cannot: peers mutate each other's state synchronously (handshakes,
// buffer-map pushes, partner teardown), read each other's volatile state
// (online flags, neighbor-list lengths), and call each other's handlers in
// the same event (rejections). For any pair that crosses a shard boundary,
// those interactions become messages delivered on the destination shard no
// earlier than the pair's OneWayDelay — which is exactly the bound the
// coordinator's lookahead window rests on, so a message never lands inside
// the window that produced it. Same-shard pairs keep the serial forms, so
// a one-shard run is byte-identical to the serial engine.
//
// The message forms are the protocol the synchronous forms abbreviate:
// a handshake or gossip exchange becomes offer → accept/decline → commit
// (with a teardown if the initiator filled up while the reply flew), a
// buffer-map push carries a copy of the advert, and a departure travels to
// remote partners instead of being observed through the online flag.
// Receiver-side state is consulted at arrival time, on the receiver's
// clock — slightly later than the serial check, the way a real exchange
// over a latency-separated path behaves.

// sameShard reports whether two nodes execute on the same shard engine.
func sameShard(a, b *Node) bool { return a.sc == b.sc }

// crossSend schedules fn on dst's shard at the absolute instant at, on
// behalf of src. During a window it rides the coordinator's mailboxes;
// from a global (barrier-phase) event it enqueues directly.
func (net *Network) crossSend(src, dst *Node, at sim.Time, fn func()) {
	net.sharded.Send(src.sc.idx, dst.sc.idx, at, fn)
}

// crossRemovePartner tears down the remote half of a partnership across
// shards. The serial engine needs no message here — remote peers observe
// the online flag (or the synchronous dropPartner) directly — so this
// carries no packet accounting; it replaces that shared-memory observation
// with one delayed by the pair's one-way latency, as a real observation
// would be.
func (net *Network) crossRemovePartner(nd, other *Node) {
	at := nd.sc.eng.Now().Add(net.Topo.OneWayDelay(nd.Host, other.Host))
	from := nd.ID
	net.crossSend(nd, other, at, func() { other.removePartner(from) })
}

// signalCross models one control packet from a to b across shards: ground
// truth and the tx record account at the sender now (the sender cannot
// know whether b is still online — the packet departs regardless, unlike
// the serial sendSignal's synchronous check); the rx record and the
// receiver-side effect land on b's shard after the one-way delay, and are
// dropped there if b has gone offline. onRx may be nil.
func (net *Network) signalCross(a, b *Node, size units.ByteSize, kind packet.Kind, onRx func()) {
	sc := a.sc
	now := sc.eng.Now()
	// Drawn for every packet, needed or not: see sendControl.
	var jitter time.Duration
	if net.Cfg.JitterMax > 0 {
		jitter = time.Duration(sc.eng.Rand().Int63n(int64(net.Cfg.JitterMax)))
	}
	recordAt(a, packet.Record{
		TS: now, Src: a.Host.Addr, Dst: b.Host.Addr,
		Size: size, TTL: packet.InitialTTL, Kind: kind,
	})
	if kind == packet.Signaling || kind == packet.Request {
		sc.ledger.SignalTotal += int64(size)
	}
	needRec := b.spool != nil
	if !needRec && onRx == nil {
		return
	}
	arrive := now.Add(net.Topo.OneWayDelay(a.Host, b.Host) + jitter)
	var rec packet.Record
	if needRec {
		rec = packet.Record{
			TS: arrive, Src: a.Host.Addr, Dst: b.Host.Addr,
			Size: size, TTL: net.ttlAtReceiver(a, b), Kind: kind,
		}
	}
	net.crossSend(a, b, arrive, func() {
		if !b.online {
			return
		}
		if needRec {
			recordAt(b, rec)
		}
		if onRx != nil {
			onRx()
		}
	})
}

// handshakeCross runs the serial handshake's two-packet introduction as a
// two-phase exchange: offer with the initiator's intent, acceptance (and
// remote partner add) at the responder, completion at the initiator.
func (nd *Node) handshakeCross(other *Node) {
	nd.rememberNeighbor(other.ID)
	want := len(nd.partners) < nd.Profile.MaxPartners
	nd.net.signalCross(nd, other, handshakeSize, packet.Signaling, func() {
		other.handshakeAccept(nd, want)
	})
}

// handshakeAccept is the responder side of a cross-shard handshake,
// executing on the responder's shard at offer arrival.
func (nd *Node) handshakeAccept(from *Node, want bool) {
	nd.rememberNeighbor(from.ID)
	accept := want && len(nd.partners) < nd.Profile.MaxPartners
	if accept {
		nd.addPartner(from)
	}
	nd.net.signalCross(nd, from, handshakeSize, packet.Signaling, func() {
		from.handshakeComplete(nd, accept)
	})
}

// handshakeComplete closes a cross-shard handshake or gossip adoption on
// the initiator's shard. If the initiator can no longer take a partner,
// the half-open remote side is torn down again.
func (nd *Node) handshakeComplete(other *Node, accepted bool) {
	if !accepted {
		return
	}
	if nd.partnerByID(other.ID) != nil {
		return
	}
	if len(nd.partners) < nd.Profile.MaxPartners {
		nd.addPartner(other)
		return
	}
	nd.net.crossRemovePartner(nd, other)
}

// gossipCross is the cross-shard form of one contactTick exchange: the
// initiator's peer-exchange message carries its adoption intent — the
// discovery-policy coin depends only on immutable locality facts, so it is
// drawn from the initiator's stream before the message departs — and the
// responder replies with its own list and the partnership verdict.
func (nd *Node) gossipCross(c *Node) {
	mine := nd.neighbors.len()
	if mine > gossipMaxEntries {
		mine = gossipMaxEntries
	}
	nd.rememberNeighbor(c.ID)
	want := false
	if len(nd.partners) < nd.Profile.PartnerTarget {
		info := nd.infoFor(c)
		w := nd.Profile.DiscoveryWeight.Weight(info)
		base := nd.Profile.DiscoveryWeight.Weight(policy.Info{})
		if base <= 0 {
			base = 1
		}
		want = w >= base || nd.sc.eng.Rand().Float64() < w/base
	}
	nd.net.signalCross(nd, c, gossipHeader+gossipPerPeer*units.ByteSize(mine), packet.Signaling, func() {
		c.gossipReply(nd, want)
	})
}

// gossipReply is the responder side of a cross-shard gossip exchange.
func (nd *Node) gossipReply(from *Node, want bool) {
	theirs := nd.neighbors.len()
	if theirs > gossipMaxEntries {
		theirs = gossipMaxEntries
	}
	nd.rememberNeighbor(from.ID)
	accept := want && len(nd.partners) < nd.Profile.MaxPartners
	if accept {
		nd.addPartner(from)
	}
	nd.net.signalCross(nd, from, gossipHeader+gossipPerPeer*units.ByteSize(theirs), packet.Signaling, func() {
		from.handshakeComplete(nd, accept)
	})
}

// pushBufferMapCross carries one signaling-tick buffer-map push to a
// partner on another shard. ad is a clone of this tick's advert,
// shared by every cross push of the tick; the receiving record views it the
// way a same-shard record views the live advert, and the next push replaces
// the view.
func (nd *Node) pushBufferMapCross(other *Node, size units.ByteSize, ad chunkstream.Advert) {
	from := nd.ID
	nd.net.signalCross(nd, other, size, packet.Signaling, func() {
		if remote := other.partnerByID(from); remote != nil {
			remote.have = ad
		}
	})
}

// keepaliveCross is the cross-shard keepalive ping-pong: the pong departs
// from the remote at ping arrival, if the remote is still online.
func (nd *Node) keepaliveCross(other *Node) {
	net := nd.net
	net.signalCross(nd, other, keepaliveSize, packet.Signaling, func() {
		net.signalCross(other, nd, keepaliveSize, packet.Signaling, nil)
	})
}
