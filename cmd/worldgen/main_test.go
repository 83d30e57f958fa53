package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"napawine/internal/experiment"
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

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-app", "Joost"}, {"-highbw", "0.5"}, {"-peers", "many"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("worldgen %v: exit %d, stdout %q, stderr %q; want exit 2 with a message", args, code, stdout.String(), stderr.String())
		}
	}
}
