// Package topology models the network underlay the emulated swarm lives on:
// countries, autonomous systems, subnets, IP addressing, and a deterministic
// router-hop / RTT path model.
//
// The paper's measurement framework consumes exactly four facts about a peer
// pair — same subnet?, same AS?, same country?, and the router hop count
// (inferred from TTL) — plus path latency and bottleneck capacity for the
// traffic dynamics. This package is the oracle for the first four and for
// latency; capacity lives in internal/access.
//
// Everything is deterministic: the AS graph is built from a seed, and
// per-pair hop counts derive from hashes of the endpoint identifiers, so the
// same world always produces the same TTLs (and therefore the same inferred
// distances) without storing an O(hosts²) matrix.
package topology

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"
)

// CC is an ISO-3166-style country code ("CN", "HU", "IT", "FR", "PL", ...).
type CC string

// Continent is a coarse region used only for propagation-delay modelling.
type Continent int

// Continents relevant to the experiments: the swarm is China-dominant and
// the probes are European, so the Asia–Europe distance drives most RTTs.
const (
	Europe Continent = iota
	Asia
	NorthAmerica
	SouthAmerica
	Africa
	Oceania
)

// ASN is an autonomous system number.
type ASN int

// SubnetID identifies one /24 allocated by the builder.
type SubnetID int

// AS describes one autonomous system.
type AS struct {
	Number  ASN
	Country CC
	// Transit reflects how deep in the provider hierarchy the AS sits;
	// it adds router hops when traffic crosses it. Assigned by the builder.
	Transit int
}

// Subnet describes one layer-3 subnet (always a /24 here; the granularity
// matches the paper's NET metric, which tests "same subnetwork").
type Subnet struct {
	ID     SubnetID
	AS     ASN
	Prefix netip.Prefix
	// edgeHops is the access/aggregation depth between hosts in this
	// subnet and the AS core: it contributes to every off-subnet path.
	edgeHops int
	// asIdx (the AS's position in Topology.ases) and continent are resolved
	// once by Build, so the per-packet path functions touch no map.
	asIdx     int
	continent Continent
}

// Host is a network attachment point: an address plus its location facts.
type Host struct {
	Addr    netip.Addr
	Subnet  SubnetID
	AS      ASN
	Country CC
}

// Builder assembles a Topology. It is not safe for concurrent use.
type Builder struct {
	rng        *rand.Rand
	continents map[CC]Continent
	ases       []*AS
	asIndex    map[ASN]int
	subnets    []*Subnet
	nextASN    ASN
	nextNet    int
}

// NewBuilder returns a topology builder seeded for deterministic graph
// generation.
func NewBuilder(seed int64) *Builder {
	return &Builder{
		rng:        rand.New(rand.NewSource(seed)),
		continents: make(map[CC]Continent),
		asIndex:    make(map[ASN]int),
		nextASN:    64512, // private-use ASN range, clearly synthetic
	}
}

// AddCountry declares a country and the continent it sits on. Declaring a
// country twice with different continents panics — it would silently skew
// every RTT involving it.
func (b *Builder) AddCountry(cc CC, cont Continent) {
	if prev, ok := b.continents[cc]; ok && prev != cont {
		panic(fmt.Sprintf("topology: country %s redeclared on different continent", cc))
	}
	b.continents[cc] = cont
}

// AddAS creates a new autonomous system in cc and returns its number.
// The country must have been declared first.
func (b *Builder) AddAS(cc CC) ASN {
	if _, ok := b.continents[cc]; !ok {
		panic(fmt.Sprintf("topology: AddAS for undeclared country %s", cc))
	}
	asn := b.nextASN
	b.nextASN++
	b.asIndex[asn] = len(b.ases)
	b.ases = append(b.ases, &AS{
		Number:  asn,
		Country: cc,
		Transit: 2 + b.rng.Intn(3), // 2..4 router hops to cross this AS
	})
	return asn
}

// AddSubnet allocates a fresh /24 inside the given AS and returns its id.
func (b *Builder) AddSubnet(asn ASN) SubnetID {
	if _, ok := b.asIndex[asn]; !ok {
		panic(fmt.Sprintf("topology: AddSubnet for unknown AS%d", asn))
	}
	id := SubnetID(len(b.subnets))
	// 10.x.y.0/24 with x.y derived from the allocation counter keeps
	// addresses unique and recognizably synthetic.
	n := b.nextNet
	b.nextNet++
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(n >> 8), byte(n), 0}), 24)
	b.subnets = append(b.subnets, &Subnet{
		ID:       id,
		AS:       asn,
		Prefix:   prefix,
		edgeHops: 1 + b.rng.Intn(3), // 1..3 hops from host to AS core
	})
	return id
}

// Build wires the AS-level graph and freezes the topology. Each AS peers
// with a handful of earlier ASes, preferring same-country neighbours, which
// yields the short AS paths (2–5) real BGP tables show; a final pass
// guarantees connectivity.
func (b *Builder) Build() *Topology {
	n := len(b.ases)
	if n == 0 {
		panic("topology: Build with no ASes")
	}
	adj := make([][]int, n)
	link := func(i, j int) {
		if i == j {
			return
		}
		for _, k := range adj[i] {
			if k == j {
				return
			}
		}
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for i := 1; i < n; i++ {
		degree := 1 + b.rng.Intn(3)
		for d := 0; d < degree; d++ {
			// Prefer a same-country AS with probability 1/2 when one
			// exists: national ISPs peer locally first.
			j := -1
			if b.rng.Intn(2) == 0 {
				var candidates []int
				for k := 0; k < i; k++ {
					if b.ases[k].Country == b.ases[i].Country {
						candidates = append(candidates, k)
					}
				}
				if len(candidates) > 0 {
					j = candidates[b.rng.Intn(len(candidates))]
				}
			}
			if j < 0 {
				j = b.rng.Intn(i)
			}
			link(i, j)
		}
	}

	// All-pairs AS distances by BFS from every node; n is small (≤ a few
	// hundred), so O(n·(n+e)) is fine and exact.
	dist := make([][]int8, n)
	for s := 0; s < n; s++ {
		d := make([]int8, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if d[v] < 0 {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		dist[s] = d
	}

	t := &Topology{
		ases:       b.ases,
		asIndex:    b.asIndex,
		subnets:    b.subnets,
		asDist:     dist,
		bySubnet:   make(map[netip.Prefix]*Subnet, len(b.subnets)),
		nextHostIP: make([]int, len(b.subnets)),
	}
	for _, s := range b.subnets {
		t.bySubnet[s.Prefix] = s
		s.asIdx = b.asIndex[s.AS]
		s.continent = b.continents[b.ases[s.asIdx].Country]
	}
	return t
}

// Topology is the frozen underlay. Safe for concurrent reads after Build;
// NewHost mutates allocation state and must not race with itself.
type Topology struct {
	ases       []*AS
	asIndex    map[ASN]int
	subnets    []*Subnet
	asDist     [][]int8
	bySubnet   map[netip.Prefix]*Subnet
	nextHostIP []int
}

// ASes lists all autonomous systems, ordered by number.
func (t *Topology) ASes() []AS {
	out := make([]AS, len(t.ases))
	for i, a := range t.ases {
		out[i] = *a
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// Subnets reports the number of subnets.
func (t *Topology) Subnets() int { return len(t.subnets) }

// CountryOfAS reports the country an AS sits in.
func (t *Topology) CountryOfAS(asn ASN) (CC, bool) {
	i, ok := t.asIndex[asn]
	if !ok {
		return "", false
	}
	return t.ases[i].Country, true
}

// NewHost allocates the next address in the subnet and returns the fully
// located host. It fails when the /24 is exhausted (253 usable hosts), which
// surfaces world-generation bugs instead of silently wrapping addresses.
func (t *Topology) NewHost(id SubnetID) (Host, error) {
	if int(id) < 0 || int(id) >= len(t.subnets) {
		return Host{}, fmt.Errorf("topology: unknown subnet %d", id)
	}
	s := t.subnets[id]
	n := t.nextHostIP[id]
	if n >= 253 {
		return Host{}, fmt.Errorf("topology: subnet %v exhausted", s.Prefix)
	}
	t.nextHostIP[id] = n + 1
	base := s.Prefix.Addr().As4()
	base[3] = byte(n + 1) // .1 .. .253
	cc, _ := t.CountryOfAS(s.AS)
	return Host{
		Addr:    netip.AddrFrom4(base),
		Subnet:  s.ID,
		AS:      s.AS,
		Country: cc,
	}, nil
}

// Locate resolves an address produced by NewHost back to its subnet, AS and
// country — the synthetic equivalent of the whois/GeoIP lookups the paper's
// offline analysis performs.
func (t *Topology) Locate(addr netip.Addr) (Host, bool) {
	p := netip.PrefixFrom(addr, 24).Masked()
	s, ok := t.bySubnet[p]
	if !ok {
		return Host{}, false
	}
	cc, _ := t.CountryOfAS(s.AS)
	return Host{Addr: addr, Subnet: s.ID, AS: s.AS, Country: cc}, true
}

// splitmix64 is a tiny strong integer mixer; it gives every unordered pair a
// stable pseudo-random value without storing a matrix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairMix hashes an unordered pair so that f(a,b) == f(b,a): Internet paths
// in this model are symmetric, matching the paper's working assumption that
// coarse-granularity partitions neutralize path asymmetry (§III-C).
func pairMix(a, b uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return splitmix64(a*0x1f123bb5159a55e5 + splitmix64(b))
}

// HopCount reports the number of router hops between two hosts:
//
//	same subnet          → 0 (the paper's NET partition)
//	same AS, other subnet→ edge depths + 1..3 core hops
//	different AS         → edge depths + per-AS transit along the BFS
//	                       AS path + a stable pair perturbation
//
// The constants are calibrated so a China-dominant swarm observed from
// European probes has a hop median ≈ 19, matching §III-B ("the actual HOP
// median ranges from 18 to 20").
func (t *Topology) HopCount(a, b Host) int {
	if a.Subnet == b.Subnet {
		return 0
	}
	sa, sb := t.subnets[a.Subnet], t.subnets[b.Subnet]
	if a.AS == b.AS {
		core := 1 + int(pairMix(uint64(a.Subnet), uint64(b.Subnet))%3)
		return sa.edgeHops + core + sb.edgeHops
	}
	ia, ib := sa.asIdx, sb.asIdx
	d := int(t.asDist[ia][ib])
	if d < 0 {
		// Disconnected AS graph cannot happen for builder-made
		// topologies, but keep a sane fallback for hand-built tests.
		d = 5
	}
	transit := 0
	// Crossing d inter-AS links traverses d+1 ASes; charge each AS its
	// transit depth. Endpoints are charged via edgeHops plus half transit.
	transit += t.ases[ia].Transit + t.ases[ib].Transit
	for k := 0; k < d-1; k++ {
		transit += 2 // interior transit ASes, typical backbone crossing
	}
	jitterSrc := pairMix(uint64(a.AS)*31+uint64(a.Subnet), uint64(b.AS)*31+uint64(b.Subnet))
	jitter := int(jitterSrc % 4)
	return sa.edgeHops + sb.edgeHops + d + transit + jitter
}

// propagation distances in one direction.
const (
	rttSameSubnet     = 200 * time.Microsecond
	rttSameCountry    = 4 * time.Millisecond
	rttSameContinent  = 15 * time.Millisecond
	rttInterContinent = 90 * time.Millisecond
	rttPerHop         = 400 * time.Microsecond
)

// OneWayDelay reports the propagation+forwarding delay from a to b. It is
// symmetric by construction.
func (t *Topology) OneWayDelay(a, b Host) time.Duration {
	if a.Subnet == b.Subnet {
		return rttSameSubnet / 2
	}
	var base time.Duration
	switch {
	case a.Country == b.Country:
		base = rttSameCountry
	case t.subnets[a.Subnet].continent == t.subnets[b.Subnet].continent:
		base = rttSameContinent
	default:
		base = rttInterContinent
	}
	hops := t.HopCount(a, b)
	// Deterministic per-pair spread (±25%) so RTTs are not quantized.
	spread := pairMix(uint64(a.Subnet)*977+uint64(b.AS), uint64(b.Subnet)*977+uint64(a.AS)) % 50
	factor := 0.75 + float64(spread)/100
	d := time.Duration(float64(base)*factor) + time.Duration(hops)*rttPerHop
	return d
}

// RTT reports the round-trip time between two hosts.
func (t *Topology) RTT(a, b Host) time.Duration {
	return 2 * t.OneWayDelay(a, b)
}

// MinInterGroupDelay reports the minimum OneWayDelay between any two hosts
// whose ASes fall in different groups, for a partition of (some of) the
// ASes into groups. The sharded engine uses this as its conservative
// lookahead: with every AS kept whole inside one shard, no cross-shard
// message can arrive sooner than this bound.
//
// OneWayDelay is a pure function of the endpoints' (Subnet, AS, Country),
// so the exact minimum is found by scanning subnet pairs with synthetic
// hosts — O(subnets²), at most a few million cheap evaluations even for
// 10⁵-peer worlds, paid once per run. ASes absent from the partition map
// host no peers and are skipped. Returns 0 when no cross-group pair exists
// (fewer than two populated groups).
func (t *Topology) MinInterGroupDelay(group map[ASN]int) time.Duration {
	best := time.Duration(0)
	found := false
	for i := 0; i < len(t.subnets); i++ {
		sa := t.subnets[i]
		ga, ok := group[sa.AS]
		if !ok {
			continue
		}
		ha := Host{Subnet: sa.ID, AS: sa.AS, Country: t.ases[sa.asIdx].Country}
		for j := i + 1; j < len(t.subnets); j++ {
			sb := t.subnets[j]
			gb, ok := group[sb.AS]
			if !ok || gb == ga {
				continue
			}
			d := t.OneWayDelay(ha, Host{Subnet: sb.ID, AS: sb.AS, Country: t.ases[sb.asIdx].Country})
			if !found || d < best {
				best, found = d, true
			}
		}
	}
	return best
}
