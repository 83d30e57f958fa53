package overlay

import (
	"napawine/internal/policy"
	"napawine/internal/units"
)

// StagedAt reports how many records nd's probe spool holds; 0 without one.
func StagedAt(nd *Node) int {
	if nd.spool == nil {
		return 0
	}
	return nd.spool.Len()
}

// AddPartner forms nd's side of a partnership with other.
func AddPartner(nd, other *Node) { nd.addPartner(other) }

// readsAll is a Weight that can read every fact of an Info, the RTT included
// (readsRTT), so infoFor builds the whole Info for it.
type readsAll struct{}

func (readsAll) Weight(policy.Info) float64 { return 1 }

// InfoFor is everything nd knows of other when a partnership forms, the RTT
// included, before the remembered delivery rate is filled in.
func InfoFor(nd, other *Node) policy.Info { return nd.infoFor(other, readsAll{}) }

// RememberRate sets the delivery rate nd remembers for peer id, which a
// partnership formed with id starts from.
func RememberRate(nd *Node, id PeerID, r units.BitRate) { nd.rateMemory.set(nd.ID, id, r) }

// Rerate moves the delivery-rate estimate of nd's partner id to r and
// rescores the partner, as a delivery, a timeout or a rejection does.
func Rerate(nd *Node, id PeerID, r units.BitRate) {
	p := nd.partnerByID(id)
	if p == nil {
		panic("overlay: Rerate of a non-partner")
	}
	p.setRate(r, nd.ID)
	nd.rescore(p)
}

// RequestWeightOf is the request weight nd's record of partner id caches.
func RequestWeightOf(nd *Node, id PeerID) float64 {
	p := nd.partnerByID(id)
	if p == nil {
		panic("overlay: RequestWeightOf a non-partner")
	}
	return p.reqW
}

// ChurnTick runs one of nd's churn steps now.
func ChurnTick(nd *Node) { nd.churnTick() }

// PartnerIDs lists nd's partners in id order.
func PartnerIDs(nd *Node) []PeerID {
	ids := make([]PeerID, len(nd.partners))
	for i := range nd.partners {
		ids[i] = nd.partners[i].id()
	}
	return ids
}
