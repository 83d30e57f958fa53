package overlay

import (
	"time"

	"napawine/internal/access"
	"napawine/internal/chunkstream"
	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/units"
)

// recordAt spools one packet record at a probe-equipped node. It runs on
// n's shard, whose clock is the instant of the event emitting r.
func recordAt(n *Node, r packet.Record) {
	if n.spool != nil {
		n.spool.Add(r, n.sc.eng.Now())
	}
}

// ttlAtReceiver computes the TTL a packet from `from` carries when it
// reaches `to`: the Windows initial TTL minus the modelled router hops.
func (net *Network) ttlAtReceiver(from, to *Node) uint8 {
	hops := net.Topo.HopCount(from.Host, to.Host)
	if hops >= packet.InitialTTL {
		return 0
	}
	return uint8(packet.InitialTTL - hops)
}

// sendSignal models a single small control packet from a to b, emitting
// records at whichever endpoints carry sniffers and accounting ground
// truth. Control packets ride above the FIFO data queues (they are tiny and
// real clients interleave them), so only propagation delay applies. Both
// endpoints must be online and live on the same shard — cross-shard control
// flows through signalCross (shard.go).
func (net *Network) sendSignal(a, b *Node, size units.ByteSize) {
	net.sendControl(a, b, size, packet.Signaling)
}

// sendControl runs on the shard both endpoints share: its clock stamps the
// records, its RNG stream draws the jitter, its ledger takes the
// accounting. With one shard that is the network's engine and ledger. The
// jitter is drawn for every packet, so the RNG stream does not depend on who
// carries a sniffer; arrival instant and TTL at b exist only when b records.
func (net *Network) sendControl(a, b *Node, size units.ByteSize, kind packet.Kind) {
	sc := a.sc
	now := sc.eng.Now()
	var jitter time.Duration
	if net.Cfg.JitterMax > 0 {
		jitter = time.Duration(sc.eng.Rand().Int63n(int64(net.Cfg.JitterMax)))
	}
	recordAt(a, packet.Record{
		TS: now, Src: a.Host.Addr, Dst: b.Host.Addr,
		Size: size, TTL: packet.InitialTTL, Kind: kind,
	})
	if b.spool != nil {
		arrive := now.Add(net.Topo.OneWayDelay(a.Host, b.Host) + jitter)
		b.spool.Add(packet.Record{
			TS: arrive, Src: a.Host.Addr, Dst: b.Host.Addr,
			Size: size, TTL: net.ttlAtReceiver(a, b), Kind: kind,
		}, now)
	}
	if kind == packet.Signaling || kind == packet.Request {
		sc.ledger.SignalTotal += int64(size)
	}
}

// sendRequest carries a chunk request from nd to target and posts the serve
// event at the responder after the one-way delay.
func (net *Network) sendRequest(nd, target *Node, id chunkstream.ChunkID) {
	if !sameShard(nd, target) {
		net.signalCross(nd, target, requestSize, packet.Request, func() {
			target.serveChunk(nd, id)
		})
		return
	}
	net.sendControl(nd, target, requestSize, packet.Request)
	owd := net.Topo.OneWayDelay(nd.Host, target.Host)
	nd.sc.eng.Post(owd, sim.Record{Kind: evServe, Node: int32(target.ID), Peer: int32(nd.ID), A: int64(id)})
}

// rejectReply declines a request. On a shared shard the requester's
// handler runs synchronously (the serial engine's shortcut); across shards
// the reject packet carries the news after the pair's one-way delay.
func (nd *Node) rejectReply(requester *Node, id chunkstream.ChunkID) {
	net := nd.net
	if sameShard(nd, requester) {
		net.sendControl(nd, requester, rejectSize, packet.Signaling)
		requester.onReject(nd.ID, id)
		return
	}
	from := nd.ID
	net.signalCross(nd, requester, rejectSize, packet.Signaling, func() {
		requester.onReject(from, id)
	})
}

// serveChunk is the responder side of the pull protocol. The responder
// rejects when it no longer holds the chunk (stale advertisement), when its
// uplink backlog exceeds the busy cap, or when either side went offline —
// though a requester on another shard cannot be checked from here: its
// departure is discovered at delivery time instead, and the transfer still
// accounts as served, the way bytes already in flight toward a vanished
// peer are genuinely spent.
func (nd *Node) serveChunk(requester *Node, id chunkstream.ChunkID) {
	net := nd.net
	sc := nd.sc
	now := sc.eng.Now()
	local := sameShard(nd, requester)
	if !nd.online || (local && !requester.online) {
		return
	}
	if !nd.hasChunk(id, now) {
		nd.rejectReply(requester, id)
		return
	}
	if nd.up.Backlog(now) > net.Cfg.UplinkBusyCap {
		nd.rejectReply(requester, id)
		return
	}

	chunkSize := net.Cfg.Calendar.ChunkSize()
	// With a bounded queue the reservation can tail-drop: the chunk is
	// silently lost and the requester discovers it through its request
	// timeout, exactly how a dropped TCP-less transfer surfaces in the
	// wild. Without a queue limit TryReserve is Reserve.
	start, _, ok := nd.up.TryReserve(now, chunkSize)
	if !ok {
		sc.ledger.DropsTotal++
		return
	}
	sizes := access.PacketizeInto(sc.trainSizes, chunkSize)
	sc.trainSizes = sizes
	owd := net.Topo.OneWayDelay(nd.Host, requester.Host)
	departs, arrives := access.TrainInto(sc.trainDeparts, sc.trainArrives, start, sizes,
		nd.Link.Spec.Up, requester.Link.Spec.Down,
		owd, sc.eng.Rand(), net.Cfg.JitterMax)
	sc.trainDeparts, sc.trainArrives = departs, arrives

	// Materialize per-packet records at whichever ends are probes.
	if nd.spool != nil {
		for i, sz := range sizes {
			recordAt(nd, packet.Record{
				TS: departs[i], Src: nd.Host.Addr, Dst: requester.Host.Addr,
				Size: sz, TTL: packet.InitialTTL, Kind: packet.Video,
			})
		}
	}

	sc.ledger.video(nd.ID, requester.ID, int64(chunkSize), requester.Host.AS, nd.Host.AS == requester.Host.AS)
	sc.ledger.ChunksServedTotal++
	if nd.isSource {
		sc.ledger.SourceVideoTx += int64(chunkSize)
	}

	last := arrives[len(arrives)-1]
	// The receiver estimates the partner's rate from goodput *during*
	// the burst (first to last packet), the way real clients sample
	// throughput. Using request-to-completion time instead would fold
	// the full RTT into the estimate and make nearby peers look faster
	// than equally provisioned distant ones — a proximity bias none of
	// the 2008 clients actually had (stop-and-wait is our simplification,
	// not theirs: they pipelined requests).
	burst := last.Sub(arrives[0])

	if local {
		if requester.spool != nil {
			ttl := net.ttlAtReceiver(nd, requester)
			for i, sz := range sizes {
				recordAt(requester, packet.Record{
					TS: arrives[i], Src: nd.Host.Addr, Dst: requester.Host.Addr,
					Size: sz, TTL: ttl, Kind: packet.Video,
				})
			}
		}
		sc.eng.PostAt(last, sim.Record{Kind: evDeliver, Node: int32(requester.ID), Peer: int32(nd.ID), A: int64(id), B: int64(burst)})
		return
	}
	from := nd.ID

	// Cross-shard delivery: the rx records and the completion handler land
	// on the requester's shard. A probe's records materialize at
	// first-packet arrival — never behind a capture-flush cutoff, since
	// every record's timestamp is at or after its insertion instant, the
	// same property the serial path has.
	if requester.spool != nil {
		recs := make([]packet.Record, len(sizes))
		ttl := net.ttlAtReceiver(nd, requester)
		for i, sz := range sizes {
			recs[i] = packet.Record{
				TS: arrives[i], Src: nd.Host.Addr, Dst: requester.Host.Addr,
				Size: sz, TTL: ttl, Kind: packet.Video,
			}
		}
		net.crossSend(nd, requester, arrives[0], func() {
			if requester.online {
				for _, r := range recs {
					recordAt(requester, r)
				}
			}
			requester.sc.eng.At(last, func() { requester.onChunkDelivered(from, id, burst) })
		})
		return
	}
	net.crossSend(nd, requester, last, func() { requester.onChunkDelivered(from, id, burst) })
}

// settleRequest clears the pending request for id if from is the partner it
// was sent to. A reply from anyone else is late — the request expired and
// went to another partner — and leaves that newer request pending.
func (nd *Node) settleRequest(id chunkstream.ChunkID, from PeerID) {
	if i := nd.inflight.find(id); i >= 0 && nd.inflight[i].from == from {
		nd.inflight.removeAt(i)
	}
}

// onReject reacts to a responder declining a request: the pending entry is
// cleared so the next scheduler tick retries elsewhere, and the partner's
// standing decays, steering future requests toward less loaded (in
// practice: higher-capacity) peers.
func (nd *Node) onReject(from PeerID, id chunkstream.ChunkID) {
	if !nd.online {
		return
	}
	nd.settleRequest(id, from)
	if p := nd.partnerByID(from); p != nil {
		p.fail()
		p.setRate(p.rate()*3/4, nd.ID)
		nd.rescore(p)
	}
}

// onChunkDelivered completes a pull: the chunk enters the buffer map and
// the partner's delivery-rate estimate absorbs the burst-goodput sample
// (every chunk has the calendar's one size).
func (nd *Node) onChunkDelivered(from PeerID, id chunkstream.ChunkID, burst time.Duration) {
	if !nd.online {
		return
	}
	nd.settleRequest(id, from)
	if fresh := !nd.buf.Has(id); nd.buf.Set(id) && fresh {
		// First receipt of an in-window chunk: account its diffusion delay
		// (birth at the source calendar to arrival here) on the ledger.
		if now, born := nd.sc.eng.Now(), nd.net.Cfg.Calendar.BornAt(id); now >= born {
			nd.sc.ledger.DiffusionDelaySum += now.Sub(born)
			nd.sc.ledger.DiffusionChunks++
		}
	}
	if i, ok := nd.partnerSearch(from); ok {
		p := &nd.partners[i]
		p.clearFailures()
		if nd.net.congestionOn() {
			// A successful delivery decays the observed-loss estimate and
			// lifts any standing backoff: the partner is reachable again.
			c := &(*nd.cong)[i]
			c.lossEWMA *= lossEWMARetain
			c.backoffUntil = 0
		}
		var sample units.BitRate
		if burst > 0 {
			sample = units.RateOf(nd.net.Cfg.Calendar.ChunkSize(), burst)
		}
		if sample > 0 {
			if r := p.rate(); r == 0 {
				p.setRate(sample, nd.ID)
			} else {
				// EWMA with 0.7 retention: smooth but responsive.
				p.setRate((r*7+sample*3)/10, nd.ID)
			}
			nd.rescore(p)
			nd.rateMemory.set(nd.ID, from, p.rate())
		}
	}
}
