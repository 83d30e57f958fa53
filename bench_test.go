// Benchmark harness: one benchmark per paper table and figure (E1–E6 in
// DESIGN.md) plus the two ablations (A1, A2).
//
// Simulation benchmarks (the ones that *regenerate* a table's data) run a
// miniature world per iteration; reduction benchmarks (computing a table
// from captured observations) reuse one cached battery. Run everything
// with:
//
//	go test -bench=. -benchmem
//
// and a single full-size regeneration with e.g.:
//
//	go test -bench=BenchmarkTableIV -benchtime=1x
package napawine_test

import (
	"context"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"napawine"
	"napawine/internal/scenario"
	"napawine/internal/world"
)

// benchBattery lazily runs one miniature three-app battery shared by the
// reduction benchmarks.
var (
	benchOnce    sync.Once
	benchResults []*napawine.Result
	benchErr     error
)

func benchBatteryResults(b *testing.B) []*napawine.Result {
	b.Helper()
	benchOnce.Do(func() {
		benchResults, benchErr = napawine.RunAll(&napawine.Study{
			Name:       "bench",
			BaseSeed:   4242,
			Duration:   napawine.StudyDuration(2 * time.Minute),
			PeerFactor: 0.15,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResults
}

// BenchmarkTableI regenerates the E1 experiment: building the Table I
// testbed world (no background swarm, no simulation).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := world.Build(world.Spec{Seed: int64(i + 1), Peers: 0, HighBwFraction: 0.7, SubnetsPerAS: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Probes) != 44 {
			b.Fatal("testbed size wrong")
		}
	}
}

// BenchmarkTableII regenerates the E2 experiment end to end at miniature
// scale: one SopCast swarm simulated per iteration, then the Table II row
// reduction.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := napawine.DefaultConfig("SopCast")
		cfg.Seed = int64(i + 1)
		cfg.Duration = 90 * time.Second
		cfg.World.Peers = 120
		r, err := napawine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := napawine.TableII([]*napawine.Result{r}).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII measures the E4 reduction: the self-induced-bias table
// computed from the cached battery's observations.
func BenchmarkTableIII(b *testing.B) {
	results := benchBatteryResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := napawine.TableIII(results).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIV measures the E5 reduction: all five preference
// partitions × two directions × primed/full variants × three applications.
func BenchmarkTableIV(b *testing.B) {
	results := benchBatteryResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := napawine.TableIV(results).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 measures the E3 reduction: the geographic breakdown of
// peers and bytes.
func BenchmarkFigure1(b *testing.B) {
	results := benchBatteryResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := napawine.RenderFigure1(io.Discard, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 measures the E6 reduction: the AS-to-AS probe traffic
// matrix and its intra/inter ratio R.
func BenchmarkFigure2(b *testing.B) {
	results := benchBatteryResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := napawine.RenderFigure2(io.Discard, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationASKnobs regenerates the A1 ablation: a TVAnts variant
// with AS-blind discovery, simulated per iteration at miniature scale.
func BenchmarkAblationASKnobs(b *testing.B) {
	base, err := napawine.ProfileOf(napawine.TVAnts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := napawine.DefaultConfig(napawine.TVAnts)
		cfg.Seed = int64(i + 1)
		cfg.Duration = 90 * time.Second
		cfg.World.Peers = 100
		cfg.Profile = napawine.ProfileVariant(base, "TVAnts-blind", func(p *napawine.Profile) {
			p.DiscoveryWeight = napawine.Uniform{}
		})
		r, err := napawine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = napawine.ComputeTableIV(r)
	}
}

// BenchmarkAblationHopThreshold measures the A2 ablation: sweeping the HOP
// partition threshold across the cached observations.
func BenchmarkAblationHopThreshold(b *testing.B) {
	results := benchBatteryResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			if _, err := napawine.HopSweep(r, 15, 23); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweep measures the replicated battery layer end to end: three
// applications × three seeds at miniature scale, fanned through the
// parallel runner and reduced to the aggregated mean±stderr tables.
func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := napawine.RunStudy(context.Background(), &napawine.Study{
			Name:       "bench",
			BaseSeed:   int64(i*100 + 1),
			Trials:     3,
			Duration:   napawine.StudyDuration(45 * time.Second),
			PeerFactor: 0.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range []*napawine.Table{res.TableII(), res.TableIII(), res.TableIV()} {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSwarmSimulation isolates the engine: events per second for a
// mid-size PPLive-profile swarm (the heaviest profile). The Shards4
// variant runs the identical workload split across four shard engines —
// on a multi-core box the wall-time ratio between the two is the
// parallel engine's speedup.
func BenchmarkSwarmSimulation(b *testing.B) {
	benchSwarm(b, 0)
}

func BenchmarkSwarmSimulationShards4(b *testing.B) {
	benchSwarm(b, 4)
}

func benchSwarm(b *testing.B, shards int) {
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := napawine.DefaultConfig(napawine.PPLive)
		cfg.Seed = int64(i + 1)
		cfg.Duration = 60 * time.Second
		cfg.World.Peers = 200
		cfg.Shards = shards
		r, err := napawine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkSwarmSimulation100k is the large-swarm smoke: a 10⁵-peer
// PPLive swarm under a steady scenario, one iteration per -benchtime=1x.
// Gated behind NAPAWINE_LARGE_BENCH because one iteration simulates a
// hundred thousand peers; the generic -bench=. smoke skips it.
func BenchmarkSwarmSimulation100k(b *testing.B) {
	benchSwarm100k(b, 0)
}

// BenchmarkSwarmSimulation100kShards8 is the parallel-engine acceptance
// benchmark: the same 10⁵-peer swarm split across eight shard engines.
// Compare against BenchmarkSwarmSimulation100k on a machine with ≥8
// cores for the sharded-clock speedup.
func BenchmarkSwarmSimulation100kShards8(b *testing.B) {
	benchSwarm100k(b, 8)
}

func benchSwarm100k(b *testing.B, shards int) {
	if os.Getenv("NAPAWINE_LARGE_BENCH") == "" {
		b.Skip("set NAPAWINE_LARGE_BENCH=1 to run the 100k-peer smoke")
	}
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := napawine.DefaultConfig(napawine.PPLive)
		cfg.Seed = int64(i + 1)
		cfg.Duration = 30 * time.Second
		cfg.World.Peers = 100_000
		cfg.Shards = shards
		cfg.Scenario = &scenario.Spec{Name: "steady"}
		r, err := napawine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}
