package apps

import (
	"testing"

	"napawine/internal/overlay"
	"napawine/internal/policy"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"PPLive", "SopCast", "TVAnts"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile name = %q, want %q", p.Name, name)
		}
	}
	if _, err := ByName("Joost"); err == nil {
		t.Error("unknown app should error")
	}
}

// stock is the three shipped profiles.
func stock() []*overlay.Profile { return []*overlay.Profile{PPLive(), SopCast(), TVAnts()} }

// The knobs must encode the paper's qualitative findings; these assertions
// pin the design so later tuning cannot silently invert a behaviour.
func TestAwarenessKnobsMatchFindings(t *testing.T) {
	pp, sc, tv := PPLive(), SopCast(), TVAnts()

	sameAS := policy.Info{SameAS: true}
	other := policy.Info{}

	// SopCast is location-blind everywhere.
	if sc.DiscoveryWeight.Weight(sameAS) != sc.DiscoveryWeight.Weight(other) {
		t.Error("SopCast discovery must be AS-blind")
	}
	if sc.RequestWeight.Weight(sameAS) != sc.RequestWeight.Weight(other) {
		t.Error("SopCast scheduling must be AS-blind")
	}

	// PPLive: discovery AS-blind, scheduling AS-biased.
	if pp.DiscoveryWeight.Weight(sameAS) != pp.DiscoveryWeight.Weight(other) {
		t.Error("PPLive discovery must be AS-blind")
	}
	if pp.RequestWeight.Weight(sameAS) <= pp.RequestWeight.Weight(other) {
		t.Error("PPLive scheduling must prefer same-AS")
	}

	// TVAnts: both discovery and scheduling AS-biased, discovery strongest.
	if tv.DiscoveryWeight.Weight(sameAS) <= tv.DiscoveryWeight.Weight(other) {
		t.Error("TVAnts discovery must prefer same-AS")
	}
	if tv.RequestWeight.Weight(sameAS) <= tv.RequestWeight.Weight(other) {
		t.Error("TVAnts scheduling must prefer same-AS")
	}

	// Nobody weighs subnet, country or RTT explicitly: a same-subnet or
	// same-country candidate with no AS match gains nothing.
	for _, p := range stock() {
		net := policy.Info{SameSubnet: true}
		cc := policy.Info{SameCC: true}
		if p.RequestWeight.Weight(net) != p.RequestWeight.Weight(other) {
			t.Errorf("%s weighs subnet explicitly", p.Name)
		}
		if p.RequestWeight.Weight(cc) != p.RequestWeight.Weight(other) {
			t.Errorf("%s weighs country explicitly", p.Name)
		}
	}
}

// Contact aggressiveness must follow the paper's observed peer populations
// (PPLive ≫ SopCast ≫ TVAnts) and partner sets its contributor counts.
func TestScaleOrdering(t *testing.T) {
	pp, sc, tv := PPLive(), SopCast(), TVAnts()
	if !(pp.ContactInterval < sc.ContactInterval && sc.ContactInterval < tv.ContactInterval) {
		t.Error("contact aggressiveness must be PPLive > SopCast > TVAnts")
	}
	if !(pp.PartnerTarget > sc.PartnerTarget && sc.PartnerTarget > tv.PartnerTarget) {
		t.Error("partner set size must be PPLive > SopCast > TVAnts")
	}
	if !(pp.NeighborListMax > sc.NeighborListMax && sc.NeighborListMax > tv.NeighborListMax) {
		t.Error("neighbor memory must be PPLive > SopCast > TVAnts")
	}
}

// Profiles must pass overlay validation (panic-free construction paths).
func TestProfilesValidate(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("a stock profile failed validation: %v", r)
		}
	}()
	for _, p := range stock() {
		// validate() is unexported; AddNode would call it. Check the
		// basic invariants here instead.
		if p.PartnerTarget <= 0 || p.MaxPartners < p.PartnerTarget {
			t.Errorf("%s: bad partner bounds", p.Name)
		}
		if p.DiscoveryWeight == nil || p.RequestWeight == nil || p.RetainWeight == nil {
			t.Errorf("%s: nil policy", p.Name)
		}
	}
}

func TestVariant(t *testing.T) {
	base := TVAnts()
	v := Variant(base, "TVAnts-noASdiscovery", func(p *overlay.Profile) {
		p.DiscoveryWeight = policy.Bias{}
	})
	if v.Name != "TVAnts-noASdiscovery" {
		t.Errorf("variant name = %q", v.Name)
	}
	if v.DiscoveryWeight.Weight(policy.Info{SameAS: true}) != 1 {
		t.Error("variant mutation not applied")
	}
	// The base profile is untouched.
	if base.Name != "TVAnts" || base.DiscoveryWeight.Weight(policy.Info{SameAS: true}) == 1 {
		t.Error("Variant mutated its base")
	}
	// Other knobs are inherited.
	if v.PartnerTarget != base.PartnerTarget || v.ContactInterval != base.ContactInterval {
		t.Error("variant lost inherited knobs")
	}
}
