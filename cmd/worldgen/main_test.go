package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/report"
	"napawine/internal/world"
)

// TestDescribesTheWorldARunBuilds: the population worldgen prints for
// (-app, -peers, -seed) is the one experiment.Run builds for that
// configuration — probes and background peers both, counted on the run's
// own artifacts (one Table II row per probe, one ledger row per node: the
// source, the probes and the background).
func TestDescribesTheWorldARunBuilds(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		peers int // 0 = the application's default
		seed  int64
	}{
		{[]string{"-app", "TVAnts"}, 0, 1},
		{[]string{"-app", "SopCast", "-peers", "120", "-seed", "7"}, 120, 7},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("worldgen %v: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		var seed int64
		var probes, background int
		if _, err := fmt.Sscanf(stdout.String(), "world seed=%d: %d probes, %d background peers",
			&seed, &probes, &background); err != nil {
			t.Fatalf("worldgen %v: unparseable header (%v):\n%s", tc.args, err, stdout.String())
		}

		cfg := experiment.Default(tc.args[1])
		cfg.Seed, cfg.World.Seed = tc.seed, tc.seed
		cfg.Duration = 5 * time.Second
		if tc.peers > 0 {
			cfg.World.Peers = tc.peers
		}
		r, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seed != tc.seed || probes != len(r.PerProbe) || 1+probes+background != len(r.Ledger.VideoRx) {
			t.Errorf("worldgen %v describes seed %d, %d probes, %d background; the run built seed %d, %d probes, %d nodes in all",
				tc.args, seed, probes, background, tc.seed, len(r.PerProbe), len(r.Ledger.VideoRx))
		}
	}
}

// TestOnePrintPerSeed: the same arguments print the same bytes every time,
// and the country table ranks peers descending with ties by country code
// ascending (TVAnts' seed-1 world has a tie: KR and PL at 10 peers).
func TestOnePrintPerSeed(t *testing.T) {
	args := []string{"-app", "TVAnts"}
	var first string
	for i := range 20 {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("worldgen %v: exit %d, stderr %q", args, code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Fatalf("run %d printed different output:\n%s\nvs the first:\n%s", i, stdout.String(), first)
		}
	}
	_, table, _ := strings.Cut(first, "CC  Peers  Share%\n")
	table, _, _ = strings.Cut(table, "\n\n")
	prevCC, prevN := "", 0
	for i, line := range strings.Split(table, "\n")[1:] { // past the rule
		var cc string
		var n int
		if _, err := fmt.Sscanf(line, "%s %d", &cc, &n); err != nil {
			t.Fatalf("unparseable country row %q: %v", line, err)
		}
		if i > 0 && (n > prevN || n == prevN && cc <= prevCC) {
			t.Errorf("row %s %d follows %s %d: want count descending, then code ascending", cc, n, prevCC, prevN)
		}
		prevCC, prevN = cc, n
	}
	if prevCC == "" {
		t.Fatalf("no country rows in:\n%s", first)
	}
}

// TestUsageErrors: a bad flag or value exits 2 with a message; -h prints
// the flag summary and exits 0.
func TestUsageErrors(t *testing.T) {
	for args, want := range map[string]string{"-app Joost": "Joost", "-highbw 0.5": "-highbw", "-peers many": "many"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), want) {
			t.Errorf("worldgen %s: exit %d, stdout %q, stderr %q; want exit 2 with a message naming %q", args, code, stdout.String(), stderr.String(), want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || !strings.Contains(stderr.String(), "-app") {
		t.Errorf("worldgen -h: exit %d, stderr %q", code, stderr.String())
	}
}

// TestSharesAreTheWorlds: each country row's count and share, and the
// access mix, are those of the world the same spec builds.
func TestSharesAreTheWorlds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "TVAnts"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	spec := experiment.Default("TVAnts").World
	spec.Seed = 1
	w, err := world.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(w.Background))
	byCC := map[string]int{}
	var fast, nat, fw float64
	for _, bg := range w.Background {
		byCC[string(bg.Host.Country)]++
		if bg.Link.HighBandwidth() {
			fast++
		}
		if bg.Link.NAT {
			nat++
		}
		if bg.Link.Firewall {
			fw++
		}
	}
	rows := map[string]int{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if k, ok := byCC[f[0]]; ok {
			rows[f[0]]++
			if f[1] != fmt.Sprint(k) || f[2] != report.Pct(100*float64(k)/n) {
				t.Errorf("row %q, want %d peers, %s%%", line, k, report.Pct(100*float64(k)/n))
			}
		}
	}
	if len(rows) != len(byCC) {
		t.Errorf("%d country rows, the world has %d countries", len(rows), len(byCC))
	}
	mix := fmt.Sprintf("access mix: %.1f%% high-bw, %.1f%% NAT, %.1f%% firewalled", 100*fast/n, 100*nat/n, 100*fw/n)
	if fast == 0 || nat == 0 || !strings.Contains(stdout.String(), mix) {
		t.Errorf("no %q in:\n%s", mix, stdout.String())
	}
}
