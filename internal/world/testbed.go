// Package world synthesizes the experiment's population: the exact Table I
// NAPA-WINE testbed (7 sites, 4 countries, 6 institutional ASes, DSL/CATV
// home probes with NAT/firewall flags) plus a configurable China-dominant
// background swarm for each application run.
package world

import (
	"fmt"

	"napawine/internal/access"
	"napawine/internal/topology"
)

// SiteSpec describes one testbed site from Table I.
type SiteSpec struct {
	Name    string
	Country topology.CC
	ASLabel string // paper's anonymized AS name (AS1..AS6)
	// Institutional hosts on the site LAN.
	HighBw    int
	HighBwNAT int  // high-bw hosts behind the institution's NAT
	HighBwFW  bool // the whole site LAN sits behind a firewall
	// Home probes attached through consumer ISPs ("ASx" rows).
	Homes []HomeSpec
}

// HomeSpec is one home probe row of Table I.
type HomeSpec struct {
	Access access.Link
}

// TableI reproduces the paper's testbed inventory.
//
// Note on arithmetic: the text states "44 peers, including 37 PCs from 7
// different industrial/academic sites, and 7 home PCs". Reading UniTN's
// "6-7 high-bw NAT" rows as two of the site's NATted hosts (rather than two
// additional hosts) makes the rows sum to exactly 37 + 7 = 44, so that is
// the encoding used here: UniTN has 5 institutional hosts of which 2 sit
// behind the campus NAT.
func TableI() []SiteSpec {
	return []SiteSpec{
		{
			Name: "BME", Country: "HU", ASLabel: "AS1",
			HighBw: 4,
			Homes:  []HomeSpec{{Access: access.DSL6}},
		},
		{
			Name: "PoliTO", Country: "IT", ASLabel: "AS2",
			HighBw: 9,
			Homes: []HomeSpec{
				{Access: access.DSL4},
				{Access: withNAT(access.DSL8)},
				{Access: withNAT(access.DSL8)},
			},
		},
		{
			Name: "MT", Country: "HU", ASLabel: "AS3",
			HighBw: 4,
		},
		{
			Name: "FFT", Country: "FR", ASLabel: "AS5",
			HighBw: 3,
		},
		{
			Name: "ENST", Country: "FR", ASLabel: "AS4",
			HighBw: 4, HighBwFW: true,
			Homes: []HomeSpec{{Access: withNAT(access.DSL22)}},
		},
		{
			Name: "UniTN", Country: "IT", ASLabel: "AS2",
			HighBw: 5, HighBwNAT: 2,
			Homes: []HomeSpec{{Access: withNATFW(access.DSL25)}},
		},
		{
			Name: "WUT", Country: "PL", ASLabel: "AS6",
			HighBw: 8,
			Homes:  []HomeSpec{{Access: access.CATV6}},
		},
	}
}

func withNAT(l access.Link) access.Link {
	l.NAT = true
	return l
}

func withNATFW(l access.Link) access.Link {
	l.NAT = true
	l.Firewall = true
	return l
}

// Probe is one NAPA-WINE vantage point.
type Probe struct {
	Label  string // e.g. "PoliTO-3" or "PoliTO-home-1"
	ASName string // paper label: AS1..AS6 for sites, ASx for homes
	Host   topology.Host
	Link   access.Link
}

// HighBandwidth reports whether the probe is one of the institutional
// "high-bw" vantage points (the population Figure 2 is computed over).
func (p *Probe) HighBandwidth() bool { return p.Link.HighBandwidth() }

// probeCounts tallies the Table I inventory for validation.
func probeCounts(sites []SiteSpec) (institutional, homes int) {
	for _, s := range sites {
		institutional += s.HighBw
		homes += len(s.Homes)
	}
	return
}

// ErrTableI guards against accidental edits to the inventory.
var errTableI = fmt.Errorf("world: Table I inventory mismatch")

// ValidateTableI checks the structural facts the paper states: 7 sites,
// 4 countries, 6 distinct institutional ASes, 7 home probes.
func ValidateTableI(sites []SiteSpec) error {
	if len(sites) != 7 {
		return fmt.Errorf("%w: %d sites, want 7", errTableI, len(sites))
	}
	countries := map[topology.CC]bool{}
	ases := map[string]bool{}
	_, homes := probeCounts(sites)
	for _, s := range sites {
		countries[s.Country] = true
		ases[s.ASLabel] = true
	}
	if len(countries) != 4 {
		return fmt.Errorf("%w: %d countries, want 4", errTableI, len(countries))
	}
	if len(ases) != 6 {
		return fmt.Errorf("%w: %d institutional ASes, want 6", errTableI, len(ases))
	}
	if homes != 7 {
		return fmt.Errorf("%w: %d home probes, want 7", errTableI, homes)
	}
	return nil
}
