// Command worldgen synthesizes an experiment world and describes it:
// country composition, AS counts, access-capacity mix and the Table I
// testbed placement. Useful for eyeballing a population before committing
// to a long run: the world is built from the same calibrated spec
// (experiment.Default) every napawine run of that application starts from.
//
// Usage:
//
//	worldgen -app TVAnts             # the world `napawine -apps TVAnts` simulates
//	worldgen -app PPLive -peers 10000 -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"napawine/internal/apps"
	"napawine/internal/experiment"
	"napawine/internal/report"
	"napawine/internal/stats"
	"napawine/internal/topology"
	"napawine/internal/world"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind a testable signature: exit status 0, 1
// when the world cannot be built or written, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("worldgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app   = fs.String("app", "PPLive", "application whose calibrated world to build: PPLive, SopCast or TVAnts")
		peers = fs.Int("peers", 0, "background peer count (0 = the application's default)")
		seed  = fs.Int64("seed", 1, "world seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if _, err := apps.ByName(*app); err != nil {
		fmt.Fprintln(stderr, "worldgen:", err)
		fs.Usage()
		return 2
	}
	// The spec every run of this application starts from, so what is
	// described here is what `napawine -apps APP -seed N [-peers N]` builds.
	spec := experiment.Default(*app).World
	spec.Seed = *seed
	if *peers > 0 {
		spec.Peers = *peers
	}
	if err := describe(stdout, spec); err != nil {
		fmt.Fprintln(stderr, "worldgen:", err)
		return 1
	}
	return 0
}

// describe builds the world and prints its composition.
func describe(out io.Writer, spec world.Spec) error {
	w, err := world.Build(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "world seed=%d: %d probes, %d background peers, %d ASes, %d subnets\n\n",
		spec.Seed, len(w.Probes), len(w.Background), len(w.Topo.ASes()), w.Topo.Subnets())

	byCC := map[topology.CC]int{}
	fastN, natN, fwN := 0, 0, 0
	for _, bg := range w.Background {
		byCC[bg.Host.Country]++
		if bg.Link.HighBandwidth() {
			fastN++
		}
		if bg.Link.NAT {
			natN++
		}
		if bg.Link.Firewall {
			fwN++
		}
	}
	t := report.NewTable("Background population by country", "CC", "Peers", "Share%")
	for _, cc := range stats.RankByCount(byCC) {
		n := byCC[cc]
		t.Add(string(cc), fmt.Sprintf("%d", n), report.Pct(100*float64(n)/float64(len(w.Background))))
	}
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naccess mix: %.1f%% high-bw, %.1f%% NAT, %.1f%% firewalled\n",
		100*float64(fastN)/float64(len(w.Background)),
		100*float64(natN)/float64(len(w.Background)),
		100*float64(fwN)/float64(len(w.Background)))

	t2 := report.NewTable("\nTestbed placement", "Probe", "AS", "CC", "Access", "Subnet")
	for _, p := range w.Probes {
		t2.Add(p.Label, p.ASName, string(p.Host.Country), p.Link.Spec.String(),
			fmt.Sprintf("%d", p.Host.Subnet))
	}
	return t2.Render(out)
}
