package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"napawine/internal/fleet"
)

// lockedBuffer is a stderr stand-in: like *os.File it takes concurrent
// Writes (progress lines and the fleet log come from several goroutines).
type lockedBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.Write(p)
}

// runCLI drives the whole command in-process and returns what it printed.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out bytes.Buffer
	var errw lockedBuffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestCLIOutputDigests pins the bytes each rendering path prints. The
// digests were recorded from the build *before* the three run paths were
// folded into one study pipeline; they move only for a change that intends
// to alter what a user sees, and the commit must say so.
func TestCLIOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen miniature swarms; skipped under -short")
	}
	zapping := filepath.Join("..", "..", "internal", "scenario", "specs", "zapping.json")
	for _, tc := range []struct {
		name, args, want string
	}{
		{"paper", "-exp all -apps TVAnts -seed 7 -duration 20s -scale 0.1",
			"3c837bef385412d5cdeee7686a8d707fd0c91ca25da4956b300ccde8edfc3563"},
		{"replicated-scenario", "-exp all -apps TVAnts,SopCast -seed 7 -seeds 3 -duration 20s -scale 0.1 -scenario flashcrowd",
			"d28352ed1ce05ce996a1a8f2455b231a9ab315dd7fd3eecfd79dc8b448cadc6b"},
		{"replicated-scenario-serial", "-exp all -apps TVAnts,SopCast -seed 7 -seeds 3 -duration 20s -scale 0.1 -scenario flashcrowd -workers 1",
			"d28352ed1ce05ce996a1a8f2455b231a9ab315dd7fd3eecfd79dc8b448cadc6b"},
		{"study", "-study blind-ablation -apps TVAnts -seeds 2 -duration 20s -scale 0.1",
			"37b325633bc1cd786b2c0ad4f0e319b8733beacf27acb612a719c9304a9e1d1f"},
		{"paper-congestion-csv", "-exp table4 -apps PPLive -seed 7 -duration 20s -scale 0.1 -queue-depth 1 -strategy rarest -csv",
			"e3ebaaa30f82c32025ad063e5ece6e6c016da9289dd329455ab5c78b9e7bc14a"},
		{"replicated-peers-scenario-file", "-exp table2 -apps SopCast,PPLive -seed 3 -seeds 2 -duration 20s -peers 80 -scenario " + zapping,
			"2269982013036d10f71a822de184c8ad447bd540d6f62af0483b3780c49474ce"},
		// The listings print the registries' order and descriptions.
		{"scenario-list", "-list scenarios",
			"bcdc01c2b3a95b92bce3ab0350d081b374743098fad7f57552f7f42bfc4bdfdb"},
		{"study-list", "-list studies",
			"f979f9dbd263177e9f3121c8f7cfc5d35f27f2bc51f449e1fe72a84d11301765"},
		{"strategy-list", "-list strategies",
			"c1083ffdeab1921e85a767a77e328e19dd1b01a31b16f0ed4650c363a20523ec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(strings.Fields(tc.args)...)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, stderr)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(stdout))); got != tc.want {
				t.Errorf("stdout digest drifted:\n got %s\nwant %s\n%s", got, tc.want, stdout)
			}
		})
	}
}

// TestOutFileCarriesTheSameBytes: -out is the same writer as stdout.
func TestOutFileCarriesTheSameBytes(t *testing.T) {
	args := strings.Fields("-exp table2 -apps TVAnts -seed 7 -duration 10s -scale 0.1")
	code, want, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	path := filepath.Join(t.TempDir(), "tables.txt")
	code, stdout, stderr := runCLI(append(args, "-out", path)...)
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q:\n%s", code, stdout, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want || want == "" {
		t.Errorf("-out file differs from stdout:\n--- file ---\n%s\n--- stdout ---\n%s", got, want)
	}
}

// TestUsageErrorsLeaveOutFileUntouched: every usage error exits 2 with a
// message naming the flag, prints the flag summary, and never opens -out —
// an artifact from a previous run keeps its bytes.
func TestUsageErrorsLeaveOutFileUntouched(t *testing.T) {
	prior := filepath.Join(t.TempDir(), "prior.txt")
	for _, tc := range []struct{ args, want string }{
		{"-exp fig1 -seeds 2", "fig1"},
		{"-exp fig2 -seeds 2", "fig2"},
		{"-exp hopsweep -seeds 2", "hopsweep"},
		{"-seeds 0", "-seeds"},
		{"-seeds -3", "-seeds"},
		{"-duration -5s", "-duration"},
		{"-duration 0s", "-duration"},
		{"-exp table4 -listen 127.0.0.1:0", "-listen"},
		{"-exp table4 -seeds 1 -listen 127.0.0.1:0 -resume " + t.TempDir(), "-listen"},
		{"-study blind-ablation -apps TVAnts,Joost", "Joost"},
		{"-scenario no-such.json", "no-such.json"},
		{"-study no-such.json", "no-such.json"},
		{"-list scenarios", "-out does not apply to -list"},
		{"-list bogus", "scenarios, strategies, studies"},
		{"-no-such-flag", "-no-such-flag"},
		{"-lean-ledger", "-lean-ledger"}, // removed with the second ledger shape
		{"-shards 2", "-shards"},         // removed: the sharded engine is not selectable
		// Removed: -scenario and -study take a .json path, -list a registry.
		{"-scenario-file f.json", "-scenario-file"},
		{"-study-file f.json", "-study-file"},
		{"-scenario-list", "-scenario-list"},
		{"-strategy-list", "-strategy-list"},
		{"-study-list", "-study-list"},
		{"table4", "table4"},
	} {
		if err := os.WriteFile(prior, []byte("previous run\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runCLI(append(strings.Fields(tc.args), "-out", prior)...)
		if code != 2 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q; want a usage error (exit 2)", tc.args, code, stdout)
		}
		first, _, _ := strings.Cut(stderr, "\n")
		if !strings.HasPrefix(first, "napawine: ") || !strings.Contains(first, tc.want) {
			t.Errorf("%s: first stderr line %q does not name %q", tc.args, first, tc.want)
		}
		if !strings.Contains(stderr, "Usage of napawine:") {
			t.Errorf("%s: usage error without the flag summary:\n%s", tc.args, stderr)
		}
		if got, err := os.ReadFile(prior); err != nil || string(got) != "previous run\n" {
			t.Errorf("%s: -out file now %q (%v); a usage error must not touch it", tc.args, got, err)
		}
	}
}

// TestBannerReportsTheBuiltStudy: the banner is derived from the study that
// runs, so -peers shows as peers (never "scale 0.00") on every path.
func TestBannerReportsTheBuiltStudy(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-exp table2 -apps TVAnts -duration 5s -peers 60", "1 seeds), 5s each, 60 peers"},
		{"-exp table2 -apps TVAnts -duration 5s -peers 60 -seeds 2", "2 seeds), 5s each, 60 peers"},
		{"-exp table2 -apps TVAnts -duration 5s -scale 0.1 -seeds 2", "2 seeds), 5s each, scale 0.10"},
		{"-study blind-ablation -apps TVAnts -duration 5s -seeds 1 -peers 60", "1 seeds), 5s each, 60 peers"},
	} {
		code, _, stderr := runCLI(strings.Fields(tc.args)...)
		first, _, _ := strings.Cut(stderr, "\n")
		if code != 0 || !strings.HasPrefix(first, "study ") || !strings.HasSuffix(first, tc.want) {
			t.Errorf("%s: exit %d, banner %q, want suffix %q", tc.args, code, first, tc.want)
		}
	}
}

// TestHelpAndStaticPaths: -h prints the flag summary and succeeds; the
// registries and Table I print without running anything.
func TestHelpAndStaticPaths(t *testing.T) {
	if code, _, stderr := runCLI("-h"); code != 0 || !strings.Contains(stderr, "-list") {
		t.Errorf("-h: exit %d:\n%s", code, stderr)
	}
	for args, want := range map[string]string{
		"-list scenarios":  "flashcrowd",
		"-list strategies": "rarest",
		"-list studies":    "blind-ablation",
		"-exp table1":      "TABLE I",
		"-exp table1 -csv": "Site,CC,AS",
	} {
		code, stdout, stderr := runCLI(strings.Fields(args)...)
		if code != 0 || !strings.Contains(stdout, want) || stderr != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

// TestFleetServesAFlagBuiltStudy: flags always compile to a study, so a
// replicated -exp run distributes like a registered one — coordinator plus
// one worker print the local run's bytes, checkpointing every cell.
func TestFleetServesAFlagBuiltStudy(t *testing.T) {
	args := strings.Fields("-exp table2 -apps TVAnts -seed 5 -seeds 2 -duration 20s -scale 0.1 -scenario outage")
	code, local, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("local run: exit %d:\n%s", code, stderr)
	}

	spool := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	worker := make(chan struct{})
	go func() {
		// The coordinator publishes its address into the spool.
		var addr []byte
		for len(addr) == 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
			addr, _ = os.ReadFile(filepath.Join(spool, "addr"))
		}
		_ = fleet.RunWorker(ctx, fleet.WorkerConfig{
			Addr: strings.TrimSpace(string(addr)), Workers: 1})
		close(worker)
	}()
	code, fleetOut, stderr := runCLI(append(args, "-listen", "127.0.0.1:0", "-resume", spool)...)
	if code != 0 {
		t.Fatalf("coordinator: exit %d:\n%s", code, stderr)
	}
	// The coordinator closes as soon as the grid completes; a worker whose
	// last acknowledgement that cut off would redial for its whole budget.
	cancel()
	<-worker
	if fleetOut != local || !strings.Contains(local, "±") || !strings.Contains(local, "DOWN") {
		t.Errorf("fleet output differs from the local run:\n--- local ---\n%s\n--- fleet ---\n%s", local, fleetOut)
	}
	if cells, _ := filepath.Glob(filepath.Join(spool, "cells", "*.json")); len(cells) != 2 {
		t.Errorf("spool holds %d cell checkpoints, want 2", len(cells))
	}
}
