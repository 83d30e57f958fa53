// Custompolicy: the A1 ablation plus the paper's future-work direction.
//
// The paper measures *what* awareness each client embeds but cannot say
// *where* it lives (discovery vs chunk scheduling). Because our profiles
// expose those knobs, we can isolate them: run stock TVAnts, a variant
// with AS-blind discovery, a variant with AS-blind scheduling, and a
// future-work variant that also weighs RTT — then let the unchanged
// measurement framework report what each one looks like on the wire.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"
	"time"

	"napawine"
)

func run(label string, mutate func(*napawine.Profile)) *napawine.Result {
	cfg := napawine.DefaultConfig(napawine.TVAnts)
	cfg.Seed = 5
	cfg.Duration = 4 * time.Minute
	cfg.World.Peers = 240

	if mutate != nil {
		base, err := napawine.ProfileOf(napawine.TVAnts)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Profile = napawine.ProfileVariant(base, label, mutate)
	}
	result, err := napawine.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return result
}

func describe(label string, r *napawine.Result) {
	// Each Table IV cell's columns: Vals[0] is B'D (bytes), Vals[1] P'D (peers).
	var as, hop [8]float64
	for _, c := range r.TableIV {
		switch c.Property {
		case "AS":
			as = c.Vals
		case "HOP":
			hop = c.Vals
		}
	}
	fig2 := napawine.Figure2(r)
	fmt.Printf("%-22s AS: B'D=%5.1f P'D=%5.1f   HOP: B'D=%5.1f P'D=%5.1f   R=%5.2f\n",
		label, as[0], as[1], hop[0], hop[1], fig2.R)
}

func main() {
	fmt.Println("running four TVAnts-world experiments (ablation + future work)...")

	stock := run("stock", nil)
	describe("stock TVAnts", stock)

	noDisc := run("TVAnts-blindDiscovery", func(p *napawine.Profile) {
		p.DiscoveryWeight = napawine.Bias{}
	})
	describe("AS-blind discovery", noDisc)

	noSched := run("TVAnts-blindScheduling", func(p *napawine.Profile) {
		p.RequestWeight = napawine.Bias{Ref: 384_000, Alpha: 2, Floor: 768_000}
		p.RetainWeight = napawine.Bias{Ref: 384_000, Alpha: 1, Floor: 192_000}
	})
	describe("AS-blind scheduling", noSched)

	rttAware := run("TVAnts-rttAware", func(p *napawine.Profile) {
		// Stock TVAnts plus an RTT factor on discovery and requests.
		disc, req := p.DiscoveryWeight.(napawine.Bias), p.RequestWeight.(napawine.Bias)
		disc.Near, disc.RTT = 60*time.Millisecond, 12
		req.Near, req.RTT = 60*time.Millisecond, 4
		p.DiscoveryWeight, p.RequestWeight = disc, req
	})
	describe("RTT-aware (future)", rttAware)

	fmt.Println("\nReading the rows:")
	fmt.Println("  - removing discovery bias collapses P' (few same-AS peers found);")
	fmt.Println("  - removing scheduling bias narrows B' toward P';")
	fmt.Println("  - the RTT-aware variant lifts the HOP row above the stock ≈50/50,")
	fmt.Println("    showing the unchanged framework would expose a locality-aware")
	fmt.Println("    client — the paper's closing recommendation made concrete.")
}
