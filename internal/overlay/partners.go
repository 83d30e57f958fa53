package overlay

import (
	"fmt"
	"math"
	"unsafe"

	"napawine/internal/chunkstream"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/units"
)

// partner is the per-neighbour state a node keeps for peers it actively
// exchanges video with: one 24-byte record, held by value in the node's
// partner table (Node.partners). The remote is named by id and resolved
// through Network.nodes where a loop needs it, so the record's one pointer is
// its view. The policy-visible facts are packed — locality as three bits, the
// delivery rate as 32 bits — and rebuilt into a policy.Info (info) only where
// a Weight reads one. The RTT is not stored: it is a pure function of the
// two hosts, and info recomputes it only for a Weight that can read it.
type partner struct {
	// key holds, from the top: the remote's id in 24 bits, the consecutive
	// failure count in 4, the announce bit and the three locality bits. The
	// flags sit below the id, so key order is id order (partnerSearch). It is
	// read and written only through the accessors below.
	key uint32
	// estRate is the running delivery-rate estimate (policy.Info.EstRate)
	// in bit/s, read through rate and written through setRate, which
	// panics rather than wrap a rate past 32 bits.
	estRate uint32
	// have is a view of the buffer map the partner last announced to this
	// node: the remote's published advert (same shard) or the clone its push
	// message carried (across shards). Nothing here owns or copies the words.
	// Zero — nothing advertised — from the record's creation until the
	// remote's next signalling tick aims it.
	have chunkstream.Advert
	// reqW caches the profile's request-time weight for this pair, which
	// requestChunk and bestPartner read. The locality facts and the RTT are
	// immutable from the moment the partnership forms, so the cache goes
	// stale only when the rate moves — every such site calls rescore. The
	// retain-time weight is not cached: churnTick, its one reader, computes
	// it from info.
	reqW float64
}

// The fields of partner.key below the id.
const (
	locSubnet uint32 = 1 << iota // the locality facts, one bit each
	locAS
	locCC
	// keyAnnounce marks a row whose remote side has not been aimed at this
	// node's advert yet. addPartner sets it both when it creates the row and
	// when it finds the row already there: the remote may have left,
	// rejoined unnoticed and re-created its side with a zero view. The
	// node's next signalling tick does the one search of the remote's table,
	// aims the remote's row and clears the flag; from then on rewriting the
	// advert in place is the whole announcement.
	keyAnnounce

	keyLoc       = locSubnet | locAS | locCC
	keyFailShift = 4
	keyFailures  = maxFailures << keyFailShift
	keyIDShift   = 8
)

// maxFailures is where a record's failure count saturates (fail): every
// test of the count compares it with a limit of at most
// congestionFailureLimit, so a saturated count reads like any larger one.
const maxFailures = 15

// The failure count must be able to reach every limit it is compared with.
var _ [maxFailures - congestionFailureLimit]struct{}

// MaxPeerID is the largest id a partner record can name in its 24 bits;
// AddNode refuses to hand out a larger one. Every node a run builds takes
// an id, so experiment.RunCtx and study.Validate refuse a run of more than
// MaxPeerID+1 nodes before a world is built.
const MaxPeerID = 1<<(32-keyIDShift) - 1

// partnerKey is the key of a record for peer id with every flag clear: the
// least key any record for id can hold.
func partnerKey(id PeerID) uint32 { return uint32(id) << keyIDShift }

// id is the remote's peer id.
func (p *partner) id() PeerID { return PeerID(p.key >> keyIDShift) }

// loc is the record's locality bits: locSubnet | locAS | locCC.
func (p *partner) loc() uint32 { return p.key & keyLoc }

// announce reports whether the remote's row still waits to be aimed at this
// node's advert (keyAnnounce).
func (p *partner) announce() bool { return p.key&keyAnnounce != 0 }

func (p *partner) setAnnounce(on bool) {
	p.key &^= keyAnnounce
	if on {
		p.key |= keyAnnounce
	}
}

// failures is the count of consecutive failures (timeouts and rejections)
// since the last success, saturated at maxFailures.
func (p *partner) failures() int { return int(p.key & keyFailures >> keyFailShift) }

// fail counts one more consecutive failure.
func (p *partner) fail() {
	if p.key&keyFailures != keyFailures {
		p.key += 1 << keyFailShift
	}
}

func (p *partner) clearFailures() { p.key &^= keyFailures }

// rate is the record's delivery-rate estimate.
func (p *partner) rate() units.BitRate { return units.BitRate(p.estRate) }

// setRate stores r as the delivery-rate estimate of partner p.id(), held by
// node self.
func (p *partner) setRate(r units.BitRate, self PeerID) { p.estRate = rate32(r, self, p.id()) }

// rate32 is r in the 32 bits a partner record or a rate-memory entry holds
// it in, for the pair of node self and remote. A rate past 2³² − 1 bit/s
// (4.29 Gbit/s, four times the fastest access link) panics, naming the pair,
// rather than wrapping.
func rate32(r units.BitRate, self, remote PeerID) uint32 {
	if r < 0 || r > math.MaxUint32 {
		panic(fmt.Sprintf("overlay: rate %d bit/s between peers %d and %d does not fit 32 bits", r, self, remote))
	}
	return uint32(r)
}

// pack stores the policy-visible facts of info in the record of partner
// p.id(), held by node self. info.RTT is not stored (info rebuilds it).
func (p *partner) pack(info policy.Info, self PeerID) {
	p.key &^= keyLoc
	if info.SameSubnet {
		p.key |= locSubnet
	}
	if info.SameAS {
		p.key |= locAS
	}
	if info.SameCC {
		p.key |= locCC
	}
	p.setRate(info.EstRate, self)
}

// info rebuilds the policy-visible facts the record of node nd packs, for
// weight w to read. The RTT is recomputed from the two hosts only when w can
// read it (readsRTT); otherwise it is left 0, which w ignores. The remote may
// run on another shard, but a node's Host never changes after AddNode.
func (p *partner) info(nd *Node, w policy.Weight) policy.Info {
	loc := p.loc()
	info := policy.Info{
		SameSubnet: loc&locSubnet != 0,
		SameAS:     loc&locAS != 0,
		SameCC:     loc&locCC != 0,
		EstRate:    p.rate(),
	}
	if readsRTT(w) {
		info.RTT = nd.net.Topo.RTT(nd.Host, nd.net.nodes[p.id()].Host)
	}
	return info
}

// readsRTT reports whether w can read Info.RTT: any Weight but a
// policy.Bias without an RTT term.
func readsRTT(w policy.Weight) bool {
	b, ok := w.(policy.Bias)
	return !ok || b.RTT != 0
}

// partnerCong is a partner's congestion observations, kept entry for entry
// with the partner table in a side table (Node.cong) that exists only when the
// network's congestion model is on (every access is gated on it): lossEWMA
// tracks the fraction of requests to the partner that timed out (1 = every
// recent request lost), and backoffUntil holds requests off the partner after
// a timeout, doubling per consecutive failure. addPartner and removePartner
// shift it with the records, and addPartner zeroes the new partner's entry.
type partnerCong struct {
	lossEWMA     float64
	backoffUntil sim.Time
}

// lossEWMARetain is the smoothing of the per-partner observed-loss EWMA:
// each timeout pulls it toward 1 and each delivery toward 0 with this
// retention. 0.75 forgets a loss burst in a handful of deliveries — fast
// enough to rehabilitate a partner whose queue drained.
const lossEWMARetain = 0.75

// congestionFailureLimit replaces the historical 4-failure partner drop
// when the congestion model is on: transient queue overload should put a
// partner into backoff, not evict it — eviction is for peers that look
// dead, and under congestion that takes a longer streak.
const congestionFailureLimit = 8

// partnerSearch returns the position of partner id in the table, or its
// insertion point. It compares whole keys with id's flagless key: a record's
// flags sit below its id, so its key is below that one exactly when its id
// is below id. Written out because slices.BinarySearchFunc calls its
// comparator un-inlined.
func (nd *Node) partnerSearch(id PeerID) (int, bool) {
	key := partnerKey(id)
	lo, hi := 0, len(nd.partners)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nd.partners[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nd.partners) && nd.partners[lo].id() == id
}

// partnerByID returns the partner with the given id, nil when there is none.
func (nd *Node) partnerByID(id PeerID) *partner {
	if i, ok := nd.partnerSearch(id); ok {
		return &nd.partners[i]
	}
	return nil
}

// addPartner inserts other's record at its id's place in the table, shifting
// the records (and congestion entries) above it up by one. It reslices, never
// appends: a table past its capacity panics rather than moving.
func (nd *Node) addPartner(other *Node) {
	i, dup := nd.partnerSearch(other.ID)
	if dup {
		nd.partners[i].setAnnounce(true)
		return
	}
	rw := nd.Profile.RequestWeight
	info := nd.infoFor(other, rw)
	// Clients remember how a peer performed in earlier partnership
	// episodes; without this, partner churn would erase every bandwidth
	// measurement and selection would stay near-uniform forever.
	info.EstRate = nd.rateMemory.get(other.ID)
	// The record sees none of other's holdings and is marked for
	// announcement to other. Locality facts are settled for good at
	// partnership formation; this is the once-per-pair request weighing the
	// selection loops reuse from here on.
	n := len(nd.partners)
	nd.partners = nd.partners[:n+1]
	copy(nd.partners[i+1:], nd.partners[i:n])
	p := &nd.partners[i]
	*p = partner{key: partnerKey(other.ID) | keyAnnounce}
	p.pack(info, nd.ID)
	p.reqW = rw.Weight(info)
	if nd.cong != nil {
		cong := *nd.cong
		copy(cong[i+1:n+1], cong[i:n])
		cong[i] = partnerCong{}
	}
}

// partnerBlockBytes is the size of the blocks partner tables are carved
// from: a whole number (8) of the runtime's 8 KB pages. A table allocated on
// its own is rounded up to its size class (PPLive's 960 bytes to 1,024); a
// block of whole tables loses at most one table's bytes to the page round-up.
const partnerBlockBytes = 64 << 10

// partnerTable carves an empty table of capacity n from the shard's current
// block, first allocating a new block when the current one has fewer than n
// records left. A block holds as many whole tables as fit partnerBlockBytes.
// The table is a three-index slice: its capacity is exactly n, so the records
// past it, the next table's, are out of its reach.
func (sc *shardCtx) partnerTable(n int) []partner {
	if len(sc.tableBlock) < n {
		tables := partnerBlockBytes / (n * int(unsafe.Sizeof(partner{})))
		sc.tableBlock = make([]partner, n*max(1, tables))
		sc.tableBytes += len(sc.tableBlock) * int(unsafe.Sizeof(partner{}))
	}
	t := sc.tableBlock[:0:n]
	sc.tableBlock = sc.tableBlock[n:]
	return t
}

// removePartner clears one side of a partnership: the records (and
// congestion entries) above id's shift down by one, and the slot vacated at
// the end is zeroed, so it pins no advert of a finished session.
func (nd *Node) removePartner(id PeerID) {
	i, ok := nd.partnerSearch(id)
	if !ok {
		return
	}
	n := len(nd.partners)
	copy(nd.partners[i:], nd.partners[i+1:])
	nd.partners[n-1] = partner{}
	nd.partners = nd.partners[:n-1]
	if nd.cong != nil {
		cong := *nd.cong
		copy(cong[i:n-1], cong[i+1:n])
	}
}

// checkPartners reports the first broken rule of the partner table and its
// congestion side table, nil when none. Only tests call it.
func (nd *Node) checkPartners() error {
	t, limit, on := nd.partners, nd.Profile.MaxPartners, nd.net.congestionOn()
	if (nd.cong != nil) != (on && t != nil) || nd.cong != nil && len(*nd.cong) != limit || t != nil && cap(t) != limit {
		return fmt.Errorf("node %d: room for %d partners, congestion table %v, model on %v; MaxPartners %d", nd.ID, cap(t), nd.cong != nil, on, limit)
	}
	for i, p := range t[:cap(t)] {
		if i >= len(t) && p != (partner{}) {
			return fmt.Errorf("node %d: slot %d, past the table's %d records, holds %+v", nd.ID, i, len(t), p)
		}
		if i > 0 && i < len(t) && t[i-1].id() >= p.id() {
			return fmt.Errorf("node %d: partner ids out of order at %d: %d, then %d", nd.ID, i, t[i-1].id(), p.id())
		}
	}
	return nil
}
