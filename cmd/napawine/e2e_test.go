package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"napawine/internal/fleet"
	"napawine/internal/golden"
	"napawine/internal/scenario"
	"napawine/internal/study"
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

// TestCLIOutputDigests pins the bytes each rendering path prints in
// testdata/cli/. A file moves only for a change that intends to alter what a
// user sees (go test -update), and the commit must say so. A -serial case
// reads its twin's file: -workers does not move a byte. Under -short only
// the cases that run no swarm run.
func TestCLIOutputDigests(t *testing.T) {
	zapping := filepath.Join("..", "..", "internal", "scenario", "specs", "zapping.json")
	for _, tc := range []struct{ name, args string }{
		{"paper", "-exp all -apps TVAnts -seed 7 -duration 20s -scale 0.1"},
		{"replicated-scenario", "-exp all -apps TVAnts,SopCast -seed 7 -seeds 3 -duration 20s -scale 0.1 -scenario flashcrowd"},
		{"replicated-scenario-serial", "-exp all -apps TVAnts,SopCast -seed 7 -seeds 3 -duration 20s -scale 0.1 -scenario flashcrowd -workers 1"},
		{"paper-congestion-csv", "-exp table4 -apps PPLive -seed 7 -duration 20s -scale 0.1 -queue-depth 1 -strategy rarest -csv"},
		{"replicated-peers-scenario-file", "-exp table2 -apps SopCast,PPLive -seed 3 -seeds 2 -duration 20s -peers 80 -scenario " + zapping},
		// Table I is the testbed's constants, with no run behind it.
		{"table1", "-exp table1"},
		{"table1-csv", "-exp table1 -csv"},
		// The listings print the registries' order and descriptions.
		{"scenario-list", "-list scenarios"},
		{"study-list", "-list studies"},
		{"strategy-list", "-list strategies"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.Contains(tc.args, "-duration") {
				t.Skip("runs a miniature swarm; skipped under -short")
			}
			code, stdout, stderr := runCLI(strings.Fields(tc.args)...)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, stderr)
			}
			golden.Check(t, filepath.Join("testdata", "cli", strings.TrimSuffix(tc.name, "-serial")+".txt"), []byte(stdout))
		})
	}
}

// TestSVGArtifactsArePinned: -svg-out writes well-formed SVG on each of the
// three render paths, and testdata/svg-out/ pins its files and stdout: a
// one-seed scenario run (swarm-wide series, per-AS series and Figure 1), a
// replicated one (mean±stderr series) and a study (metric bars).
func TestSVGArtifactsArePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs miniature swarms; skipped under -short")
	}
	for _, tc := range []struct{ name, args string }{
		{"one-seed-scenario", "-exp all -apps TVAnts -seed 7 -duration 20s -scale 0.1 -scenario flashcrowd"},
		{"replicated-scenario", "-exp all -apps TVAnts,SopCast -seed 7 -seeds 2 -duration 20s -scale 0.1 -scenario flashcrowd"},
		{"study", "-study blind-ablation -apps TVAnts -seeds 2 -duration 20s -scale 0.1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stdout, stderr := runCLI(append(strings.Fields(tc.args), "-svg-out", dir)...)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, stderr)
			}
			golden.Check(t, filepath.Join("testdata", "svg-out", tc.name+".txt"), []byte(stdout))
			golden.CheckDir(t, filepath.Join("testdata", "svg-out", tc.name), dir)
			svgs, _ := filepath.Glob(filepath.Join(dir, "*"))
			for _, path := range svgs {
				b, _ := os.ReadFile(path) // CheckDir has read it
				for d := xml.NewDecoder(bytes.NewReader(b)); ; {
					if _, err := d.Token(); err == io.EOF {
						break
					} else if err != nil {
						t.Errorf("%s: %v", path, err)
						break
					}
				}
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
		{"-scale NaN", "peer factor NaN"},
		{"-apps TVAnts -exp table2 -duration 600000h", "past the limit of 2147483647"},
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
		code, stdout, stderr := runCLI(append([]string{"-out", prior}, strings.Fields(tc.args)...)...)
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

// TestRunFailuresExitOne: a destination that cannot be written, an address
// that cannot be served or joined, and a cell that fails at run time each
// exit 1 with the error, without the flag summary; the failed cell's
// progress line says FAILED.
func TestRunFailuresExitOne(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "x")
	doomed := filepath.Join(dir, "doomed.json")
	// Arrivals with no deferred pool to draw from fail only at run time.
	if err := os.WriteFile(doomed, []byte(`{"name": "doomed", "events": [{"kind": "arrivals", "from": 0.1, "to": 0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := "-exp table2 -apps TVAnts -duration 5s -scale 0.05 "
	for _, tc := range []struct{ args, want string }{
		{"-join bad%zz", "invalid URL escape"},
		{"-exp table1 -cpuprofile " + missing, missing},
		{"-exp table1 -memprofile " + missing, missing},
		{"-exp table1 -out " + missing, missing},
		{run + "-http 256.0.0.1:0", "256.0.0.1"},
		{run + "-seeds 2 -listen 256.0.0.1:0", "256.0.0.1"},
		{"-study blind-ablation -apps TVAnts -seeds 1 -duration 5s -scale 0.05 -svg-out " + doomed, doomed},
		{run + "-scenario " + doomed, "study "},
	} {
		code, _, stderr := runCLI(strings.Fields(tc.args)...)
		if code != 1 || !strings.Contains(stderr, "napawine: ") || !strings.Contains(stderr[strings.Index(stderr, "napawine: "):], tc.want) ||
			strings.Contains(stderr, "Usage of napawine:") {
			t.Errorf("%s: exit %d, stderr:\n%s\nwant exit 1 and an error naming %q", tc.args, code, stderr, tc.want)
		}
		if strings.Contains(tc.args, "-scenario") && !strings.Contains(stderr, "cell 1/1 TVAnts @doomed seed 1 FAILED: ") {
			t.Errorf("%s: no FAILED progress line:\n%s", tc.args, stderr)
		}
	}

	// A -join worker narrates to stderr and exits 1 with the study error
	// when its cell fails.
	spec, err := scenario.LoadFile(doomed)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Addr: "127.0.0.1:0", Study: &study.Study{
		Name: "doomed", Apps: []string{"TVAnts"}, Seeds: []int64{1}, Scenarios: []study.Scenario{{Spec: spec}},
		Duration: study.Duration(5 * time.Second), PeerFactor: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	type outcome struct {
		code   int
		stderr string
	}
	joined := make(chan outcome, 1)
	go func() {
		code, _, stderr := runCLI("-join", coord.Addr(), "-workers", "1")
		joined <- outcome{code, stderr}
	}()
	select {
	case o := <-joined:
		if o.code != 1 || !strings.Contains(o.stderr, "joined "+coord.Addr()) || !strings.Contains(o.stderr, "napawine: study doomed: TVAnts @doomed seed 1: ") {
			t.Errorf("-join to a failing study: exit %d, stderr:\n%s", o.code, o.stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a -join worker outlived its failed cell by 10 s")
	}
}

// TestDashboardWithoutLinger: -http serves a dashboard during the run and
// says where; without -http-linger it does not linger, and a run with no
// charts writes no -svg-out directory.
func TestDashboardWithoutLinger(t *testing.T) {
	svgDir := filepath.Join(t.TempDir(), "svg")
	code, _, stderr := runCLI(strings.Fields("-exp table2 -apps TVAnts -seeds 2 -duration 5s -scale 0.05 -http 127.0.0.1:0 -svg-out " + svgDir)...)
	if code != 0 || !strings.Contains(stderr, "dashboard: http://127.0.0.1:") || strings.Contains(stderr, "lingering") {
		t.Errorf("exit %d, stderr:\n%s\nwant the dashboard's address and no linger", code, stderr)
	}
	if _, err := os.Stat(svgDir); !os.IsNotExist(err) || strings.Contains(stderr, "SVG artifacts") {
		t.Errorf("a run with no charts wrote %s (%v):\n%s", svgDir, err, stderr)
	}
}

// TestProfilesAreWritten: -cpuprofile and -memprofile each leave a profile.
func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code, _, stderr := runCLI("-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a profile", path, err)
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
		if !strings.Contains(stderr, "\ndone in ") || !strings.Contains(stderr, " simulation events)\n") {
			t.Errorf("%s: no closing \"done in\" line:\n%s", tc.args, stderr)
		}
		// Progress counts cells from 1.
		if !strings.Contains(stderr, "\ncell 1/") || strings.Contains(stderr, "cell 0/") || !strings.Contains(stderr, " done (continuity ") {
			t.Errorf("%s: no progress line per cell, counted from 1:\n%s", tc.args, stderr)
		}
	}
}

// TestHelpAndStaticPaths: -h prints the flag summary and succeeds; the
// registries and Table I, pinned in testdata/cli/, print nothing to stderr.
func TestHelpAndStaticPaths(t *testing.T) {
	if code, _, stderr := runCLI("-h"); code != 0 || !strings.Contains(stderr, "-list") {
		t.Errorf("-h: exit %d:\n%s", code, stderr)
	}
	for _, args := range []string{"-list scenarios", "-list strategies", "-list studies", "-exp table1", "-exp table1 -csv"} {
		if code, stdout, stderr := runCLI(strings.Fields(args)...); code != 0 || stdout == "" || stderr != "" {
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

	// The coordinator runs beside the worker, as a fleet test's Wait does,
	// and every wait is bounded: a worker that fails ends the test at once
	// with its error, a coordinator that publishes no address fails it in
	// 10 s, and a worker must return within 5 s of the coordinator.
	spool := t.TempDir()
	type outcome struct {
		code           int
		stdout, stderr string
	}
	coordDone := make(chan outcome, 1)
	go func() {
		var o outcome
		o.code, o.stdout, o.stderr = runCLI(append(args, "-listen", "127.0.0.1:0", "-resume", spool,
			"-http", "127.0.0.1:0", "-http-linger", "1ns")...)
		coordDone <- o
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The coordinator publishes its address into the spool.
	var addr []byte
	for noAddr := time.After(10 * time.Second); len(addr) == 0; addr, _ = os.ReadFile(filepath.Join(spool, "addr")) {
		select {
		case o := <-coordDone:
			t.Fatalf("coordinator: exit %d before it published its address:\n%s", o.code, o.stderr)
		case <-noAddr:
			t.Fatal("the coordinator published no address in 10 s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	werr := make(chan error, 1)
	go func() {
		werr <- fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: strings.TrimSpace(string(addr)), Workers: 1})
	}()
	var o outcome
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		select {
		case o = <-coordDone:
		case <-ctx.Done():
			t.Fatal("the coordinator outlived its only worker's finished grid")
		}
	case o = <-coordDone:
		// The coordinator closes as soon as the grid completes; a worker
		// whose last acknowledgement that cut off would redial for its
		// whole budget.
		select {
		case err := <-werr:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the worker outlived the coordinator (exit %d) by 5 s:\n%s", o.code, o.stderr)
		}
	}
	if o.code != 0 {
		t.Fatalf("coordinator: exit %d:\n%s", o.code, o.stderr)
	}
	fleetOut := o.stdout
	// The coordinator narrates: where it listens, who joined, and its
	// dashboard lingers for any positive -http-linger.
	for _, want := range []string{"fleet: coordinating on 127.0.0.1:", "fleet: worker ", " joined (", "dashboard lingering 1ns"} {
		if !strings.Contains(o.stderr, want) {
			t.Errorf("coordinator stderr has no %q:\n%s", want, o.stderr)
		}
	}
	if fleetOut != local || !strings.Contains(local, "±") || !strings.Contains(local, "DOWN") {
		t.Errorf("fleet output differs from the local run:\n--- local ---\n%s\n--- fleet ---\n%s", local, fleetOut)
	}
	if cells, _ := filepath.Glob(filepath.Join(spool, "cells", "*.json")); len(cells) != 2 {
		t.Errorf("spool holds %d cell checkpoints, want 2", len(cells))
	}
}
