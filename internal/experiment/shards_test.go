package experiment

import (
	"bytes"
	"math"
	"testing"
	"time"

	"napawine/internal/apps"
	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/scenario"
	"napawine/internal/topology"
	"napawine/internal/world"
)

// mustScenario resolves a registered scenario or fails the test.
func mustScenario(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// shardCfg is the shared workload for the sharded-run tests: small enough
// to run in seconds, long enough for churn, gossip, and steady-state video
// exchange to all happen.
func shardCfg(shards int) Config {
	cfg := Default("TVAnts")
	cfg.Duration = 2 * time.Minute
	cfg.Shards = shards
	return cfg
}

// ledgerInvariants asserts the accounting identities that must hold exactly
// for any shard count: they are conservation laws of the protocol, not
// statistics. chunkSize is the calendar's fixed chunk size.
func ledgerInvariants(t *testing.T, res *Result) {
	t.Helper()
	led := res.Ledger
	const chunkSize = 48_000 // 48 × units.KB, the calendar's chunk size
	if led.VideoTotal != led.ChunksServedTotal*chunkSize {
		t.Errorf("VideoTotal = %d, want ChunksServedTotal×chunk = %d",
			led.VideoTotal, led.ChunksServedTotal*chunkSize)
	}
	var rxByAS, intraByAS int64
	for _, v := range led.VideoRxByAS {
		rxByAS += v
	}
	for _, v := range led.VideoIntraByAS {
		intraByAS += v
	}
	if rxByAS != led.VideoTotal {
		t.Errorf("sum(VideoRxByAS) = %d, want VideoTotal %d", rxByAS, led.VideoTotal)
	}
	if intraByAS != led.VideoIntraAS {
		t.Errorf("sum(VideoIntraByAS) = %d, want VideoIntraAS %d", intraByAS, led.VideoIntraAS)
	}
	if led.VideoIntraAS > led.VideoTotal {
		t.Errorf("VideoIntraAS %d exceeds VideoTotal %d", led.VideoIntraAS, led.VideoTotal)
	}
	var rx, tx int64
	for _, v := range led.VideoRx {
		rx += v
	}
	for _, v := range led.VideoTx {
		tx += v
	}
	if rx != led.VideoTotal || tx != led.VideoTotal {
		t.Errorf("per-peer video sums rx=%d tx=%d, want VideoTotal %d", rx, tx, led.VideoTotal)
	}
	if led.SourceVideoTx > led.VideoTotal {
		t.Errorf("SourceVideoTx %d exceeds VideoTotal %d", led.SourceVideoTx, led.VideoTotal)
	}
}

// TestShardedDifferential is the shards=1 vs shards=N agreement test: the
// conservation identities hold exactly on both engines, and the swarm-level
// figures agree within loose statistical bands — a sharded run draws
// different RNG streams, so it is a different sample of the same swarm, the
// way a different seed's run is.
func TestShardedDifferential(t *testing.T) {
	serial, err := Run(shardCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	ledgerInvariants(t, serial)
	for _, n := range []int{2, 4} {
		res, err := Run(shardCfg(n))
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		ledgerInvariants(t, res)
		rel := math.Abs(float64(res.Ledger.VideoTotal)-float64(serial.Ledger.VideoTotal)) /
			float64(serial.Ledger.VideoTotal)
		if rel > 0.15 {
			t.Errorf("shards=%d: VideoTotal %d vs serial %d (%.0f%% apart, want ≤15%%)",
				n, res.Ledger.VideoTotal, serial.Ledger.VideoTotal, 100*rel)
		}
		if math.Abs(res.MeanContinuity-serial.MeanContinuity) > 0.05 {
			t.Errorf("shards=%d: continuity %.4f vs serial %.4f",
				n, res.MeanContinuity, serial.MeanContinuity)
		}
		if math.Abs(res.SourceSharePct-serial.SourceSharePct) > 3 {
			t.Errorf("shards=%d: source share %.2f%% vs serial %.2f%%",
				n, res.SourceSharePct, serial.SourceSharePct)
		}
	}
}

// TestShardedDeterministicAcrossRuns pins the shards=N determinism
// contract: the same (seed, shards) pair replays the identical simulation,
// goroutine scheduling notwithstanding.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(shardCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shardCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Errorf("Events differ: %d vs %d", a.Events, b.Events)
	}
	if a.Ledger.VideoTotal != b.Ledger.VideoTotal {
		t.Errorf("VideoTotal differs: %d vs %d", a.Ledger.VideoTotal, b.Ledger.VideoTotal)
	}
	if a.Ledger.SignalTotal != b.Ledger.SignalTotal {
		t.Errorf("SignalTotal differs: %d vs %d", a.Ledger.SignalTotal, b.Ledger.SignalTotal)
	}
	if a.Ledger.VideoIntraAS != b.Ledger.VideoIntraAS {
		t.Errorf("VideoIntraAS differs: %d vs %d", a.Ledger.VideoIntraAS, b.Ledger.VideoIntraAS)
	}
	if a.MeanContinuity != b.MeanContinuity {
		t.Errorf("MeanContinuity differs: %v vs %v", a.MeanContinuity, b.MeanContinuity)
	}
	if a.DiffusionDelayS != b.DiffusionDelayS {
		t.Errorf("DiffusionDelayS differs: %v vs %v", a.DiffusionDelayS, b.DiffusionDelayS)
	}
	if len(a.Observations) != len(b.Observations) {
		t.Errorf("observation counts differ: %d vs %d", len(a.Observations), len(b.Observations))
	}
}

// TestShardedScenarioRun exercises the global-engine integration: scenario
// timeline, per-bucket sampler and cancel-free run all riding barriers
// while four shards execute the swarm.
func TestShardedScenarioRun(t *testing.T) {
	cfg := shardCfg(4)
	cfg.Scenario = mustScenario(t, "flashcrowd")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledgerInvariants(t, a)
	if len(a.Series) == 0 {
		t.Fatal("scenario run sampled no series buckets")
	}
	cfg2 := shardCfg(4)
	cfg2.Scenario = mustScenario(t, "flashcrowd")
	b, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		x, y := a.Series[i], b.Series[i]
		if x.Online != y.Online || x.Continuity != y.Continuity || x.VideoKbps != y.VideoKbps {
			t.Fatalf("series bucket %d differs: %+v vs %+v", i, x, y)
		}
	}
	// The table a user reads, byte for byte.
	var x, y bytes.Buffer
	if err := TableIV([]*Result{a}).Render(&x); err != nil {
		t.Fatal(err)
	}
	if err := TableIV([]*Result{b}).Render(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("Table IV differs between two sharded runs:\n%s\nvs\n%s", x.String(), y.String())
	}
}

// TestShardedRTTAwareRun runs four shards under a TVAnts profile whose
// request and retain weights both favour partners nearer than 60 ms. A
// partner record keeps no RTT, so every such weighing reads the remote's
// host, which may sit on another shard: hosts never change after AddNode,
// and `go test -race` over this package checks that the reads race with
// nothing. Two runs must replay the same simulation.
func TestShardedRTTAwareRun(t *testing.T) {
	base, err := apps.ByName("TVAnts")
	if err != nil {
		t.Fatal(err)
	}
	prof := apps.Variant(base, "TVAnts-rttAware", func(p *overlay.Profile) {
		req, retain := p.RequestWeight.(policy.Bias), p.RetainWeight.(policy.Bias)
		req.Near, req.RTT = 60*time.Millisecond, 4
		retain.Near, retain.RTT = 60*time.Millisecond, 3
		p.RequestWeight, p.RetainWeight = req, retain
	})
	run := func() *Result {
		cfg := shardCfg(4)
		cfg.Duration = time.Minute
		cfg.Profile = prof
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ledgerInvariants(t, res)
		return res
	}
	a, b := run(), run()
	if a.Events != b.Events || a.Ledger.VideoTotal != b.Ledger.VideoTotal || a.MeanContinuity != b.MeanContinuity {
		t.Errorf("two runs differ: %d events, %d video bytes, continuity %v; then %d, %d, %v",
			a.Events, a.Ledger.VideoTotal, a.MeanContinuity, b.Events, b.Ledger.VideoTotal, b.MeanContinuity)
	}
}

func TestPartitionAS(t *testing.T) {
	cfg := Default("SopCast")
	w, err := world.Build(cfg.World)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[topology.ASN]int{w.SourceHost.AS: 1}
	for _, p := range w.Probes {
		counts[p.Host.AS]++
	}
	for _, bg := range w.Background {
		counts[bg.Host.AS]++
	}
	for _, dp := range w.Deferred {
		counts[dp.Host.AS]++
	}

	part, n := partitionAS(w, 4)
	if n != 4 {
		t.Fatalf("effective shards = %d, want 4 (world has %d ASes)", n, len(counts))
	}
	load := make([]int, n)
	for as, c := range counts {
		idx, ok := part[as]
		if !ok {
			t.Fatalf("AS %d not assigned to any shard", as)
		}
		if idx < 0 || idx >= n {
			t.Fatalf("AS %d assigned out-of-range shard %d", as, idx)
		}
		load[idx] += c
	}
	// Greedy largest-first bin-packing: every shard is populated, and no
	// shard's load exceeds the best-balanced load by more than the largest
	// single AS (the classic LPT bound, loose form).
	largest, total := 0, 0
	for _, c := range counts {
		total += c
		if c > largest {
			largest = c
		}
	}
	for i, l := range load {
		if l == 0 {
			t.Errorf("shard %d is empty", i)
		}
		if l > total/n+largest {
			t.Errorf("shard %d load %d exceeds balance bound %d", i, l, total/n+largest)
		}
	}

	// Determinism: the partition is a pure function of (world, n).
	again, _ := partitionAS(w, 4)
	for as, idx := range part {
		if again[as] != idx {
			t.Fatalf("partition not deterministic at AS %d: %d vs %d", as, idx, again[as])
		}
	}

	// Clamping: more shards than ASes degrades to one shard per AS.
	_, clamped := partitionAS(w, 10_000)
	if clamped != len(counts) {
		t.Errorf("clamped shards = %d, want AS count %d", clamped, len(counts))
	}
	if _, one := partitionAS(w, 0); one != 1 {
		t.Errorf("shards floor = %d, want 1", one)
	}
}
