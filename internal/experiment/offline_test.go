package experiment

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"napawine/internal/analysis"
	"napawine/internal/core"
	"napawine/internal/packet"
)

// The paper's workflow is capture-then-analyze-offline. This test runs an
// experiment that archives every probe trace, then replays one trace from
// disk through a fresh aggregator and checks the offline observations are
// identical to the live ones.
func TestOfflineTraceReplayMatchesLive(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig("TVAnts", 17)
	cfg.Duration = 2 * time.Minute
	cfg.World.Peers = 120
	cfg.StoreTraces = dir

	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 44 {
		t.Fatalf("trace files = %d, want 44 (one per probe)", len(entries))
	}

	// Replay every trace and rebuild the observation set offline.
	probeSet := r.World.ProbeAddrs()
	var offline []core.Observation
	var records uint64
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := packet.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := analysis.FromTrace(rd, analysis.DefaultConfig())
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		records += agg.Records()
		var unlocated int
		offline, unlocated = agg.AppendObservations(offline, r.World.Topo, probeSet)
		if unlocated != 0 {
			t.Fatalf("offline replay could not locate %d peers", unlocated)
		}
	}
	if records == 0 {
		t.Fatal("archived traces are empty")
	}
	if len(offline) != len(r.Observations) {
		t.Fatalf("offline observations = %d, live = %d", len(offline), len(r.Observations))
	}

	// The framework must produce byte-identical indices from either path.
	for _, c := range core.PaperClassifiers() {
		for _, dir := range []core.Direction{core.Download, core.Upload} {
			for _, excl := range []bool{false, true} {
				live := core.Compute(r.Observations, dir, c, cfg.Contrib, excl)
				repl := core.Compute(offline, dir, c, cfg.Contrib, excl)
				if live.PeerPct != repl.PeerPct || live.BytePct != repl.BytePct ||
					live.PeersPreferred != repl.PeersPreferred ||
					live.BytesPreferred != repl.BytesPreferred {
					t.Errorf("%s/%s excl=%v: offline %v != live %v",
						c.Name(), dir, excl, repl, live)
				}
			}
		}
	}
}

func TestStoreTracesBadDirFails(t *testing.T) {
	cfg := smallConfig("SopCast", 3)
	cfg.Duration = 30 * time.Second
	cfg.World.Peers = 30
	cfg.StoreTraces = "/nonexistent/path/that/cannot/be/created"
	if _, err := Run(cfg); err == nil {
		t.Error("unwritable trace dir should fail the run")
	}
}
