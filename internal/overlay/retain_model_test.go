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
	for seed, app := range []string{"PPLive", "SopCast", "TVAnts"} {
		prof, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		ties, _ := checkChurnDropsTheCachedWorst(t, app, prof, int64(seed))
		if ties == 0 {
			t.Errorf("%s: no drop was decided by the id tie-break", app)
		}
	}
}

// TestRTTTermsReadTheFullInfo runs the same reference under a TVAnts profile
// whose request and retain weights both favour partners nearer than 60 ms,
// the path-length term examples/custompolicy sets. The record keeps no RTT,
// so each weight that reads one recomputes it from the two hosts: every
// cached request weight and every churn drop must still equal what the full
// Info formation builds gives, and the RTT term must decide some drops.
func TestRTTTermsReadTheFullInfo(t *testing.T) {
	base, err := apps.ByName("TVAnts")
	if err != nil {
		t.Fatal(err)
	}
	prof := *base
	req, retain := prof.RequestWeight.(policy.Bias), prof.RetainWeight.(policy.Bias)
	req.Near, req.RTT = 60*time.Millisecond, 4
	retain.Near, retain.RTT = 60*time.Millisecond, 3
	prof.RequestWeight, prof.RetainWeight = req, retain
	if _, decided := checkChurnDropsTheCachedWorst(t, "TVAnts", &prof, 7); decided == 0 {
		t.Error("the RTT term decided no drop: the test cannot tell an RTT that was read from one left 0")
	}
}

// checkChurnDropsTheCachedWorst runs 300 churn drops of one node under prof,
// in a world of app's shape, against a reference holding each partner's rate
// and the weights of the full Info formation builds (overlay.InfoFor, RTT
// included) at that rate. Before every drop each record's cached request
// weight must equal the reference's, and churnTick must drop Worst over the
// reference's retain weights. It returns how many drops had the worst weight
// tied, and how many would have gone to another partner had the retain
// weight read no RTT.
func checkChurnDropsTheCachedWorst(t *testing.T, app string, prof *overlay.Profile, seed int64) (ties, rttDecided int) {
	t.Helper()
	// Few distinct rates, some under every profile's floor, so retain
	// weights tie often and the id tie-break decides.
	rates := []units.BitRate{0, 100 * units.Kbps, 192 * units.Kbps, 384 * units.Kbps, 2 * units.Mbps, 80 * units.Mbps}
	spec := experiment.Default(app).World
	spec.Peers = 3 * prof.MaxPartners
	w, err := world.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	net := overlay.New(sim.New(seed), w.Topo, overlay.Config{
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
	rng := rand.New(rand.NewSource(seed))
	remembered := make(map[overlay.PeerID]units.BitRate)
	for _, o := range others {
		remembered[o.ID] = rates[rng.Intn(len(rates))]
		overlay.RememberRate(nd, o.ID, remembered[o.ID])
	}
	rate := make(map[overlay.PeerID]units.BitRate)
	info := func(id overlay.PeerID) policy.Info {
		i := overlay.InfoFor(nd, net.NodeByID(id))
		i.EstRate = rate[id]
		return i
	}
	var sameAS int
	for round := range 300 {
		for want := prof.PartnerTarget + rng.Intn(prof.MaxPartners-prof.PartnerTarget+1); len(rate) < want; {
			o := others[rng.Intn(len(others))]
			if _, ok := rate[o.ID]; !ok {
				overlay.AddPartner(nd, o)
				rate[o.ID] = remembered[o.ID]
			}
		}
		ids := slices.Sorted(maps.Keys(rate))
		for range rng.Intn(8) {
			id := ids[rng.Intn(len(ids))]
			r := rates[rng.Intn(len(rates))]
			overlay.Rerate(nd, id, r)
			rate[id] = r
		}
		if got := overlay.PartnerIDs(nd); !slices.Equal(got, ids) {
			t.Fatalf("%s round %d: partners %v, the reference %v", app, round, got, ids)
		}
		for _, id := range ids {
			if got, want := overlay.RequestWeightOf(nd, id), prof.RequestWeight.Weight(info(id)); got != want {
				t.Fatalf("%s round %d: partner %d caches request weight %v, the full Info gives %v", app, round, id, got, want)
			}
		}

		var s, blind policy.Scorer
		for _, id := range ids {
			i := info(id)
			s.PushScored(policy.Candidate{Index: int(id)}, prof.RetainWeight.Weight(i))
			i.RTT = 0
			blind.PushScored(policy.Candidate{Index: int(id)}, prof.RetainWeight.Weight(i))
		}
		worst := overlay.PeerID(s.Worst().Index)
		if blind.Worst().Index != int(worst) {
			rttDecided++
		}
		for _, id := range ids {
			if id != worst && prof.RetainWeight.Weight(info(id)) == prof.RetainWeight.Weight(info(worst)) {
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
		delete(rate, worst)
	}
	t.Logf("%s: 300 drops, %d with the worst weight tied, %d of a same-AS partner, %d decided by the RTT term", app, ties, sameAS, rttDecided)
	return ties, rttDecided
}
