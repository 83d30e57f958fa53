package world

import (
	"strings"
	"testing"

	"napawine/internal/topology"
)

func smallSpec(seed int64, peers int) Spec {
	return Spec{
		Seed:              seed,
		Peers:             peers,
		HighBwFraction:    0.6,
		NATFraction:       0.2,
		FWFraction:        0.05,
		ProbeASBackground: 3,
	}
}

// TestTableIStructure: the structural facts the paper states of its
// testbed: 7 sites in 4 countries and 6 institutional ASes, 37
// institutional and 7 home probes (§II: 44 peers).
func TestTableIStructure(t *testing.T) {
	sites := TableI()
	if len(sites) != 7 {
		t.Fatalf("%d sites, want 7", len(sites))
	}
	countries := map[topology.CC]bool{}
	ases := map[string]bool{}
	inst, homes := 0, 0
	for _, s := range sites {
		countries[s.Country] = true
		ases[s.ASLabel] = true
		inst += s.HighBw
		homes += len(s.Homes)
	}
	if len(countries) != 4 || len(ases) != 6 {
		t.Errorf("%d countries and %d institutional ASes, want 4 and 6", len(countries), len(ases))
	}
	if inst != 37 || homes != 7 {
		t.Errorf("inventory = %d institutional + %d homes, want 37+7 (§II: 44 peers)", inst, homes)
	}
	// Spot-check rows against the paper.
	byName := map[string]SiteSpec{}
	for _, s := range sites {
		byName[s.Name] = s
	}
	if s := byName["PoliTO"]; s.HighBw != 9 || len(s.Homes) != 3 || s.Country != "IT" {
		t.Errorf("PoliTO row wrong: %+v", s)
	}
	if s := byName["ENST"]; !s.HighBwFW || s.Country != "FR" {
		t.Error("ENST must be firewalled, in FR")
	}
	if s := byName["UniTN"]; s.HighBwNAT != 2 || s.ASLabel != "AS2" {
		t.Error("UniTN must have 2 NATted high-bw hosts in AS2")
	}
	if byName["PoliTO"].ASLabel != byName["UniTN"].ASLabel {
		t.Error("PoliTO and UniTN share AS2 in the paper")
	}
	// Home accesses must match the Table I spec strings.
	if byName["ENST"].Homes[0].Access.Spec.String() != "22/1.8" {
		t.Error("ENST home must be 22/1.8")
	}
}

// TestInstitutionalLinks: the background's high-bw profiles, in Table I
// notation, all high-bandwidth.
func TestInstitutionalLinks(t *testing.T) {
	var got []string
	for _, l := range institutionalLinks {
		got = append(got, l.Spec.String())
		if !l.HighBandwidth() {
			t.Errorf("institutional link %v is not high-bw", l.Spec)
		}
	}
	if want := "100/100 20/20 50/50 100/20"; strings.Join(got, " ") != want {
		t.Errorf("institutional links = %s, want %s", strings.Join(got, " "), want)
	}
}

func TestBuildWorld(t *testing.T) {
	w, err := Build(smallSpec(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Probes) != 44 {
		t.Errorf("probes = %d, want 44 (§II)", len(w.Probes))
	}
	if len(w.Background) != 200+6*3 {
		t.Errorf("background = %d, want %d", len(w.Background), 200+18)
	}
	// Every probe address must resolve in the registry to its declared
	// location facts.
	for _, p := range w.Probes {
		got, ok := w.Topo.Locate(p.Host.Addr)
		if !ok {
			t.Fatalf("probe %s not locatable", p.Label)
		}
		if got != p.Host {
			t.Errorf("probe %s locate mismatch", p.Label)
		}
		if !w.IsProbe(p.Host.Addr) {
			t.Errorf("probe %s not in probe set", p.Label)
		}
	}
	// Background peers are never in the probe set.
	for _, bg := range w.Background {
		if w.IsProbe(bg.Host.Addr) {
			t.Error("background peer flagged as probe")
		}
	}
	// Source exists and is high-bandwidth, in the dominant country.
	if !w.SourceLink.HighBandwidth() {
		t.Error("source must be high-bw")
	}
	if w.SourceHost.Country != "CN" {
		t.Errorf("source country = %s, want CN", w.SourceHost.Country)
	}
}

func TestProbeASStructure(t *testing.T) {
	w, err := Build(smallSpec(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	// PoliTO and UniTN probes share an AS; other sites do not.
	asOf := map[string]topology.ASN{}
	for _, p := range w.Probes {
		if p.ASName != "ASx" {
			site, _, _ := strings.Cut(p.Label, "-")
			if prev, ok := asOf[site]; ok && prev != p.Host.AS {
				t.Errorf("site %s spans two ASes", site)
			}
			asOf[site] = p.Host.AS
		}
	}
	if asOf["PoliTO"] != asOf["UniTN"] {
		t.Error("PoliTO and UniTN must share AS2")
	}
	if asOf["BME"] == asOf["MT"] {
		t.Error("BME (AS1) and MT (AS3) must be distinct ASes")
	}
	// Home probes sit in their own consumer ASes, not the site AS.
	for _, p := range w.Probes {
		if p.ASName == "ASx" {
			for site, asn := range asOf {
				if p.Host.AS == asn {
					t.Errorf("home probe %s landed in institutional AS of %s", p.Label, site)
				}
			}
		}
	}
}

func TestProbeASBackgroundPresent(t *testing.T) {
	w, err := Build(smallSpec(3, 50))
	if err != nil {
		t.Fatal(err)
	}
	// Each institutional AS must contain background (non-probe) peers in
	// a subnet different from the campus LANs.
	probeAS := map[topology.ASN]bool{}
	probeSubnets := map[topology.SubnetID]bool{}
	for _, p := range w.Probes {
		if p.ASName != "ASx" {
			probeAS[p.Host.AS] = true
			probeSubnets[p.Host.Subnet] = true
		}
	}
	counts := map[topology.ASN]int{}
	for _, bg := range w.Background {
		if probeAS[bg.Host.AS] {
			counts[bg.Host.AS]++
			if probeSubnets[bg.Host.Subnet] {
				t.Error("probe-AS background peer landed on a campus LAN subnet")
			}
		}
	}
	if len(counts) != 6 {
		t.Errorf("background present in %d probe ASes, want 6", len(counts))
	}
}

func TestCountryMixRoughlyHonored(t *testing.T) {
	w, err := Build(smallSpec(4, 2000))
	if err != nil {
		t.Fatal(err)
	}
	byCC := map[topology.CC]int{}
	for _, bg := range w.Background {
		byCC[bg.Host.Country]++
	}
	n := len(w.Background)
	cnFrac := float64(byCC["CN"]) / float64(n)
	if cnFrac < 0.5 || cnFrac > 0.75 {
		t.Errorf("CN fraction = %.2f, want ≈0.62", cnFrac)
	}
	for _, cc := range []topology.CC{"HU", "IT", "FR", "PL"} {
		if byCC[cc] == 0 {
			t.Errorf("no background peers in probe country %s", cc)
		}
	}
}

func TestHighBwFractionRoughlyHonored(t *testing.T) {
	spec := smallSpec(5, 2000)
	spec.HighBwFraction = 0.6
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for _, bg := range w.Background {
		if bg.Link.HighBandwidth() {
			fast++
		}
	}
	frac := float64(fast) / float64(len(w.Background))
	if frac < 0.5 || frac > 0.7 {
		t.Errorf("high-bw fraction = %.2f, want ≈0.6", frac)
	}
}

func TestBuildDeterminism(t *testing.T) {
	w1, err := Build(smallSpec(7, 300))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(smallSpec(7, 300))
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Background) != len(w2.Background) {
		t.Fatal("background sizes differ")
	}
	for i := range w1.Background {
		if w1.Background[i].Host != w2.Background[i].Host ||
			w1.Background[i].Link != w2.Background[i].Link {
			t.Fatalf("background peer %d differs across identical builds", i)
		}
	}
	for i := range w1.Probes {
		if w1.Probes[i].Host != w2.Probes[i].Host {
			t.Fatalf("probe %d differs across identical builds", i)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{Seed: 1, Peers: -5}); err == nil {
		t.Error("negative peers should fail")
	}
	// No background is a world of the testbed alone.
	if w, err := Build(Spec{Seed: 1}); err != nil || len(w.Background) != 0 || len(w.Probes) == 0 {
		t.Errorf("zero peers: %v", err)
	}
	if _, err := Build(Spec{Seed: 1, HighBwFraction: 1.5}); err == nil {
		t.Error("bad fraction should fail")
	}
}

func TestProbeAddrsIsCopy(t *testing.T) {
	w, err := Build(smallSpec(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	m := w.ProbeAddrs()
	for k := range m {
		delete(m, k)
	}
	if len(w.ProbeAddrs()) == 0 {
		t.Error("ProbeAddrs returned internal storage")
	}
}

func BenchmarkBuildWorld2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(smallSpec(int64(i), 2000)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeferredPoolLeavesBaseWorldIdentical(t *testing.T) {
	base, err := Build(smallSpec(9, 200))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(9, 200)
	spec.ExtraPeers = 150
	grown, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Deferred) != 150 {
		t.Fatalf("deferred pool = %d peers, want 150", len(grown.Deferred))
	}
	if len(base.Deferred) != 0 {
		t.Fatalf("base world grew a deferred pool of %d", len(base.Deferred))
	}
	if len(base.Background) != len(grown.Background) {
		t.Fatal("background sizes differ once a deferred pool is requested")
	}
	for i := range base.Background {
		if base.Background[i] != grown.Background[i] {
			t.Fatalf("background peer %d differs once a deferred pool is requested", i)
		}
	}
	if base.SourceHost != grown.SourceHost {
		t.Error("source host moved once a deferred pool is requested")
	}
	// Deferred peers are real, located hosts drawn from the same mix.
	for i, p := range grown.Deferred {
		if _, ok := grown.Topo.Locate(p.Host.Addr); !ok {
			t.Fatalf("deferred peer %d has an unlocatable address", i)
		}
		if grown.IsProbe(p.Host.Addr) {
			t.Fatalf("deferred peer %d collides with the probe set", i)
		}
	}
}

func TestDeferredPoolValidation(t *testing.T) {
	spec := smallSpec(1, 10)
	spec.ExtraPeers = -1
	if _, err := Build(spec); err == nil {
		t.Error("negative extra peers should fail")
	}
}

// Population-aware address-space sizing: the subnets per background AS must
// stay at the historical 3 for every small world (seed-stability) and grow
// with the population so large swarms can actually be placed.
func TestDefaultSubnetsPerASScaling(t *testing.T) {
	if got := subnetsPerAS(1000, DefaultMix()); got != 3 {
		t.Errorf("1k peers: %d subnets per AS, want 3 (historical default)", got)
	}
	big := subnetsPerAS(100_000, DefaultMix())
	// CN binds: 62% of 2×100k peers over 14 ASes of 253-host subnets.
	if big < 35 {
		t.Errorf("100k peers: %d subnets per AS, want ≥ 35", big)
	}
}

func TestBuildLargeSwarmPlaces(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-peer world")
	}
	w, err := Build(Spec{Seed: 9, Peers: 30_000, HighBwFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Background) != 30_000 {
		t.Fatalf("placed %d background peers, want 30000", len(w.Background))
	}
}
