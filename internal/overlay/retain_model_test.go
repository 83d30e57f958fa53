package overlay_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"napawine/internal/apps"
	"napawine/internal/chunkstream"
	"napawine/internal/experiment"
	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/units"
	"napawine/internal/world"
)

// TestChurnDropsTheCachedWorst checks the partner churn step against a
// reference that caches every partner's retain weight the way the partner
// record once did: filled when the partnership forms, from what the node
// knows of the peer and the rate it remembers, and refilled at every rescore.
// Under each shipped profile, on random tables in a world of that app's
// shape, the partner churnTick drops must be Worst over those cached weights.
func TestChurnDropsTheCachedWorst(t *testing.T) {
	// Few distinct rates, some under every profile's floor, so retain
	// weights tie often and the id tie-break decides.
	rates := []units.BitRate{0, 100 * units.Kbps, 192 * units.Kbps, 384 * units.Kbps, 2 * units.Mbps, 80 * units.Mbps}
	for seed, app := range []string{"PPLive", "SopCast", "TVAnts"} {
		prof, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		spec := experiment.Default(app).World
		spec.Peers = 3 * prof.MaxPartners
		w, err := world.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		net := overlay.New(sim.New(int64(seed)), w.Topo, overlay.Config{
			Calendar:      chunkstream.NewCalendar(apps.StreamRate, 48*units.KB),
			BufferWindow:  64,
			TrackerBatch:  12,
			UplinkBusyCap: 3 * time.Second,
		})
		net.SetTrackerPaused(true) // joins and churn refills form no partnerships
		var others []*overlay.Node
		for _, bg := range w.Background {
			others = append(others, net.AddNode(bg.Host, bg.Link, prof))
		}
		nd, others := others[0], others[1:]
		for _, o := range append(others, nd) {
			o.Join()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		remembered := make(map[overlay.PeerID]units.BitRate)
		for _, o := range others {
			remembered[o.ID] = rates[rng.Intn(len(rates))]
			overlay.RememberRate(nd, o.ID, remembered[o.ID])
		}
		cached := make(map[overlay.PeerID]float64)
		fill := func(o *overlay.Node, r units.BitRate) {
			info := overlay.InfoFor(nd, o)
			info.EstRate = r
			cached[o.ID] = prof.RetainWeight.Weight(info)
		}
		var ties, sameAS int
		for round := range 300 {
			for want := prof.PartnerTarget + rng.Intn(prof.MaxPartners-prof.PartnerTarget+1); len(cached) < want; {
				o := others[rng.Intn(len(others))]
				if _, ok := cached[o.ID]; !ok {
					overlay.AddPartner(nd, o)
					fill(o, remembered[o.ID])
				}
			}
			ids := slices.Sorted(maps.Keys(cached))
			for range rng.Intn(8) {
				id := ids[rng.Intn(len(ids))]
				r := rates[rng.Intn(len(rates))]
				overlay.Rerate(nd, id, r)
				fill(net.NodeByID(id), r)
			}
			if got := overlay.PartnerIDs(nd); !slices.Equal(got, ids) {
				t.Fatalf("%s round %d: partners %v, the reference %v", app, round, got, ids)
			}

			var s policy.Scorer
			for _, id := range ids {
				s.PushScored(policy.Candidate{Index: int(id)}, cached[id])
			}
			worst := overlay.PeerID(s.Worst().Index)
			for _, id := range ids {
				if id != worst && cached[id] == cached[worst] {
					ties++
					break
				}
			}
			if overlay.InfoFor(nd, net.NodeByID(worst)).SameAS {
				sameAS++
			}

			overlay.ChurnTick(nd)
			want := slices.DeleteFunc(slices.Clone(ids), func(id overlay.PeerID) bool { return id == worst })
			if got := overlay.PartnerIDs(nd); !slices.Equal(got, want) {
				t.Fatalf("%s round %d: churn left %v, the reference drops %d and leaves %v", app, round, got, worst, want)
			}
			delete(cached, worst)
		}
		t.Logf("%s: 300 drops, %d with the worst weight tied, %d of a same-AS partner", app, ties, sameAS)
		if ties == 0 {
			t.Errorf("%s: no drop was decided by the id tie-break", app)
		}
	}
}
