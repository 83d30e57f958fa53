package world

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"napawine/internal/access"
	"napawine/internal/topology"
	"napawine/internal/units"
)

// CountryShare gives one country's slice of the background population.
type CountryShare struct {
	CC        topology.CC
	Continent topology.Continent
	Share     float64 // relative weight, normalized internally
	ASes      int     // autonomous systems hosting this country's peers
}

// Spec parameterizes background-population synthesis.
type Spec struct {
	Seed  int64
	Peers int // background peers (excluding probes and source)

	// HighBwFraction is the share of background peers on institutional-
	// grade symmetric links; the rest get consumer DSL/CATV profiles.
	HighBwFraction float64

	// NATFraction/FWFraction apply to consumer-grade background peers.
	NATFraction float64
	FWFraction  float64

	// ProbeASBackground places this many background peers inside each
	// institutional probe AS. Without them the non-NAPA-WINE same-AS
	// contributor sets (the P′/B′ AS rows of Table IV) would be
	// structurally empty.
	ProbeASBackground int

	// ExtraPeers synthesizes a deferred peer pool on top of the base
	// background: hosts drawn from the same country mix and link
	// distribution, materialized in World.Deferred but never started by the
	// experiment's default arrival schedule. Workload scenarios (flash
	// crowds, diurnal waves) activate them over time. The pool is generated
	// strictly after the base world, so for a given Seed the base
	// population is byte-identical whether ExtraPeers is 0 or not.
	ExtraPeers int
}

// DefaultMix is the China-dominant audience of a CCTV-1 broadcast at China
// peak hour, with the four probe countries present but small (§II, Fig. 1).
func DefaultMix() []CountryShare {
	return []CountryShare{
		{CC: "CN", Continent: topology.Asia, Share: 0.62, ASes: 14},
		{CC: "HU", Continent: topology.Europe, Share: 0.02, ASes: 3},
		{CC: "IT", Continent: topology.Europe, Share: 0.03, ASes: 3},
		{CC: "FR", Continent: topology.Europe, Share: 0.025, ASes: 3},
		{CC: "PL", Continent: topology.Europe, Share: 0.015, ASes: 3},
		{CC: "US", Continent: topology.NorthAmerica, Share: 0.08, ASes: 5},
		{CC: "JP", Continent: topology.Asia, Share: 0.06, ASes: 3},
		{CC: "KR", Continent: topology.Asia, Share: 0.05, ASes: 3},
		{CC: "DE", Continent: topology.Europe, Share: 0.04, ASes: 3},
		{CC: "UK", Continent: topology.Europe, Share: 0.03, ASes: 3},
		{CC: "ES", Continent: topology.Europe, Share: 0.02, ASes: 2},
	}
}

// Peer is one background swarm member.
type Peer struct {
	Host topology.Host
	Link access.Link
}

// World is a fully materialized experiment population.
type World struct {
	Topo       *topology.Topology
	Probes     []Probe
	Background []Peer
	// Deferred is the scenario-activated peer pool (Spec.ExtraPeers): built
	// like Background but left offline until a scenario schedules arrivals.
	Deferred []Peer
	// SourceHost/SourceLink describe the stream injection point (a
	// well-provisioned host in the channel's home country).
	SourceHost topology.Host
	SourceLink access.Link

	// probeAddrs indexes the NAPA-WINE set W for O(1) membership tests.
	probeAddrs map[netip.Addr]bool
}

// IsProbe reports whether addr belongs to the NAPA-WINE probe set W.
func (w *World) IsProbe(addr netip.Addr) bool { return w.probeAddrs[addr] }

// ProbeAddrs returns the probe set as a map copy.
func (w *World) ProbeAddrs() map[netip.Addr]bool {
	out := make(map[netip.Addr]bool, len(w.probeAddrs))
	for k := range w.probeAddrs {
		out[k] = true
	}
	return out
}

// consumer access profiles sampled for background low-bw peers.
var consumerLinks = []access.Link{
	access.DSL4, access.DSL6, access.DSL8, access.DSL22, access.DSL25, access.CATV6,
}

// institutional profiles sampled for background high-bw peers.
var institutionalLinks = []access.Link{
	access.LAN100,
	{Spec: units.Symmetric(20 * units.Mbps)},
	{Spec: units.Symmetric(50 * units.Mbps)},
	{Spec: units.AccessSpec{Down: 100 * units.Mbps, Up: 20 * units.Mbps}},
}

// subnetsPerAS sizes the background address space for the population: the
// subnets in each background AS. Placement samples a country bucket's
// subnets uniformly at random (with a handful of retries on a full /24), so
// each bucket needs roughly twice its expected load in capacity to absorb
// the multinomial skew. The floor of 3 keeps every world built before
// population-aware sizing byte-identical: at ≤ a few thousand peers no
// bucket needs more.
func subnetsPerAS(peers int, mix []CountryShare) int {
	const hostsPerSubnet = 253 // usable addresses in a /24
	need := 3
	totalShare := 0.0
	for _, m := range mix {
		totalShare += m.Share
	}
	for _, m := range mix {
		load := 2 * float64(peers) * (m.Share / totalShare)
		n := int(math.Ceil(load / float64(m.ASes*hostsPerSubnet)))
		if n > need {
			need = n
		}
	}
	return need
}

// Build materializes the testbed plus a background swarm per spec.
func Build(spec Spec) (*World, error) {
	if spec.Peers < 0 {
		return nil, fmt.Errorf("world: negative peer count %d", spec.Peers)
	}
	if spec.ExtraPeers < 0 {
		return nil, fmt.Errorf("world: negative extra peer count %d", spec.ExtraPeers)
	}
	if spec.HighBwFraction < 0 || spec.HighBwFraction > 1 {
		return nil, fmt.Errorf("world: HighBwFraction %v out of [0,1]", spec.HighBwFraction)
	}
	mix := DefaultMix()
	perAS := subnetsPerAS(spec.Peers+spec.ExtraPeers, mix)
	sites := TableI()

	rng := rand.New(rand.NewSource(spec.Seed))
	b := topology.NewBuilder(spec.Seed)

	// Countries: the mix holds the testbed's four too.
	totalShare := 0.0
	for _, m := range mix {
		b.AddCountry(m.CC, m.Continent)
		totalShare += m.Share
	}

	// Institutional ASes (AS1..AS6). PoliTO and UniTN share AS2.
	asNames := map[string]topology.ASN{}
	siteSubnet := map[string]topology.SubnetID{}
	for _, s := range sites {
		if _, ok := asNames[s.ASLabel]; !ok {
			asNames[s.ASLabel] = b.AddAS(s.Country)
		}
		siteSubnet[s.Name] = b.AddSubnet(asNames[s.ASLabel])
	}
	// One extra subnet per probe AS for same-AS background peers: they
	// share the AS but not the campus LAN. Iterate labels in a fixed
	// order — map order would randomize subnet allocation and break
	// same-seed reproducibility.
	probeASLabels := []string{"AS1", "AS2", "AS3", "AS4", "AS5", "AS6"}
	probeASExtra := map[string]topology.SubnetID{}
	for _, label := range probeASLabels {
		probeASExtra[label] = b.AddSubnet(asNames[label])
	}

	// Background country ASes and subnets.
	type bucket struct {
		share   float64
		subnets []topology.SubnetID
	}
	buckets := make([]bucket, len(mix))
	for i, m := range mix {
		bk := bucket{share: m.Share / totalShare}
		for a := 0; a < m.ASes; a++ {
			asn := b.AddAS(m.CC)
			for s := 0; s < perAS; s++ {
				bk.subnets = append(bk.subnets, b.AddSubnet(asn))
			}
		}
		buckets[i] = bk
	}

	// Home-probe consumer ASes ("ASx"): one per home probe, each with its
	// own subnet, in the site's country.
	var homeSubnets []topology.SubnetID
	for _, s := range sites {
		for range s.Homes {
			asn := b.AddAS(s.Country)
			homeSubnets = append(homeSubnets, b.AddSubnet(asn))
		}
	}

	topo := b.Build()
	w := &World{
		Topo:       topo,
		probeAddrs: make(map[netip.Addr]bool),
	}

	// Materialize probes.
	homeIdx := 0
	for _, s := range sites {
		for i := 0; i < s.HighBw; i++ {
			link := access.LAN100
			if i < s.HighBwNAT {
				link.NAT = true
			}
			if s.HighBwFW {
				link.Firewall = true
			}
			h, err := topo.NewHost(siteSubnet[s.Name])
			if err != nil {
				return nil, err
			}
			w.Probes = append(w.Probes, Probe{
				Label:  fmt.Sprintf("%s-%d", s.Name, i+1),
				ASName: s.ASLabel,
				Host:   h,
				Link:   link,
			})
			w.probeAddrs[h.Addr] = true
		}
		for j, home := range s.Homes {
			h, err := topo.NewHost(homeSubnets[homeIdx])
			if err != nil {
				return nil, err
			}
			w.Probes = append(w.Probes, Probe{
				Label:  fmt.Sprintf("%s-home-%d", s.Name, j+1),
				ASName: "ASx",
				Host:   h,
				Link:   home.Access,
			})
			w.probeAddrs[h.Addr] = true
			homeIdx++
		}
	}

	// Background peers inside probe ASes.
	for _, label := range probeASLabels {
		for i := 0; i < spec.ProbeASBackground; i++ {
			h, err := topo.NewHost(probeASExtra[label])
			if err != nil {
				return nil, err
			}
			w.Background = append(w.Background, Peer{Host: h, Link: sampleLink(rng, spec)})
		}
	}

	// Background peers by country mix.
	pickBucket := func() bucket {
		x := rng.Float64()
		acc := 0.0
		for _, bk := range buckets {
			acc += bk.share
			if x < acc {
				return bk
			}
		}
		return buckets[len(buckets)-1]
	}
	placePeer := func(i int) (Peer, error) {
		bk := pickBucket()
		sn := bk.subnets[rng.Intn(len(bk.subnets))]
		h, err := topo.NewHost(sn)
		if err != nil {
			// Subnet full: retry a few times on other subnets.
			placed := false
			for attempt := 0; attempt < 8; attempt++ {
				sn = bk.subnets[rng.Intn(len(bk.subnets))]
				if h, err = topo.NewHost(sn); err == nil {
					placed = true
					break
				}
			}
			if !placed {
				return Peer{}, fmt.Errorf("world: cannot place background peer %d: %v", i, err)
			}
		}
		return Peer{Host: h, Link: sampleLink(rng, spec)}, nil
	}
	for i := 0; i < spec.Peers; i++ {
		p, err := placePeer(i)
		if err != nil {
			return nil, err
		}
		w.Background = append(w.Background, p)
	}

	// Source: well-provisioned host in the mix's first (dominant) country.
	srcBucket := buckets[0]
	srcHost, err := topo.NewHost(srcBucket.subnets[0])
	if err != nil {
		return nil, err
	}
	w.SourceHost = srcHost
	w.SourceLink = access.LAN1000

	// Deferred pool last: everything above must be byte-identical for a
	// given seed whether or not a scenario asked for extra peers.
	for i := 0; i < spec.ExtraPeers; i++ {
		p, err := placePeer(spec.Peers + i)
		if err != nil {
			return nil, err
		}
		w.Deferred = append(w.Deferred, p)
	}

	return w, nil
}

func sampleLink(rng *rand.Rand, spec Spec) access.Link {
	if rng.Float64() < spec.HighBwFraction {
		return institutionalLinks[rng.Intn(len(institutionalLinks))]
	}
	l := consumerLinks[rng.Intn(len(consumerLinks))]
	if rng.Float64() < spec.NATFraction {
		l.NAT = true
	}
	if rng.Float64() < spec.FWFraction {
		l.Firewall = true
	}
	return l
}
