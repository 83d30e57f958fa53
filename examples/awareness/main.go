// Awareness: the full paper battery — run PPLive-, SopCast- and
// TVAnts-like swarms and regenerate Tables II–IV and Figures 1–2.
//
//	go run ./examples/awareness            # ~a minute of wall time
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"napawine"
)

func main() {
	fmt.Println("running the three applications in parallel (4 virtual minutes each)...")
	start := time.Now()
	results, err := napawine.RunAll(&napawine.Study{
		Name:       "awareness",
		BaseSeed:   21,
		Duration:   napawine.StudyDuration(4 * time.Minute),
		PeerFactor: 0.5, // half-size worlds keep the demo quick
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	for _, render := range []func() error{
		func() error { return napawine.TableII(results).Render(os.Stdout) },
		func() error { return napawine.TableIII(results).Render(os.Stdout) },
		func() error { return napawine.TableIV(results).Render(os.Stdout) },
		func() error { return napawine.RenderFigure1(os.Stdout, results) },
		func() error { return napawine.RenderFigure2(os.Stdout, results) },
	} {
		if err := render(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	fmt.Println("Shape checks against the paper:")
	for _, r := range results {
		cells := napawine.ComputeTableIV(r)
		var as napawine.TableIVCell
		for _, c := range cells {
			if c.Property == "AS" {
				as = c
			}
		}
		ratio := 0.0
		if as.PDPrime.PeerPct > 0 {
			ratio = as.BDPrime.BytePct / as.PDPrime.PeerPct
		}
		fig2 := napawine.Figure2(r)
		fmt.Printf("  %-8s AS B'/P' ratio=%.1f  Fig2 R=%.2f  hop median=%.0f\n",
			r.App, ratio, fig2.R, r.HopMedianMeasured)
	}
	fmt.Println("\nExpected: PPLive ratio ≫ 1, TVAnts ratio ≈ 2 with the largest P',")
	fmt.Println("SopCast ratio ≈ 1; Fig2 R largest for TVAnts.")
}
