package experiment

import (
	"testing"
	"time"

	"napawine/internal/access"
	"napawine/internal/apps"
	"napawine/internal/policy"
)

// congestedConfig is a deliberately tight swarm: short run, bounded uplink
// queues one chunk deep, so tail-drop loss is guaranteed to fire.
func congestedConfig(t *testing.T, seed int64, strategy string) Config {
	t.Helper()
	cfg := Default("TVAnts")
	cfg.Seed = seed
	cfg.Duration = 90 * time.Second
	cfg.World.Seed = seed
	cfg.World.Peers = 120
	cfg.World.ProbeASBackground = 4
	strat, err := policy.StrategyByName(strategy)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = apps.TVAnts()
	cfg.Profile.ChunkStrategy = strat
	cfg.Congestion = access.CongestionModel{QueueDepth: 1}
	return cfg
}

func TestDefaultRunHasNoCongestion(t *testing.T) {
	r := runSmall(t, "SopCast")
	if r.Drops != 0 || r.Retransmits != 0 || r.Backoffs != 0 {
		t.Errorf("congestion counters nonzero with congestion off: drops %d, retx %d, backoffs %d",
			r.Drops, r.Retransmits, r.Backoffs)
	}
	if r.ChunksServed == 0 {
		t.Error("no chunks served at all")
	}
}

func TestBoundedQueueDropsAndRecovers(t *testing.T) {
	r, err := Run(congestedConfig(t, 7, "hybrid:u=0.4,r=1,a=1"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Drops == 0 {
		t.Fatal("queue depth 1 produced no drops — congestion model not wired")
	}
	if r.Retransmits == 0 {
		t.Error("drops occurred but nothing was retransmitted")
	}
	if r.Backoffs == 0 {
		t.Error("drops occurred but no partner was backed off")
	}
	if r.LossPct <= 0 || r.LossPct >= 100 {
		t.Errorf("loss = %.2f%%, want strictly inside (0,100)", r.LossPct)
	}
	// Retransmission must keep the stream alive despite forced loss.
	if r.MeanContinuity < 0.5 {
		t.Errorf("mean continuity = %.2f under loss, want ≥ 0.5", r.MeanContinuity)
	}
}

func TestCongestedRunDeterministic(t *testing.T) {
	a, err := Run(congestedConfig(t, 3, "hybrid:u=0.4,r=1,a=1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(congestedConfig(t, 3, "hybrid:u=0.4,r=1,a=1"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Drops != b.Drops || a.Retransmits != b.Retransmits || a.Backoffs != b.Backoffs {
		t.Errorf("congestion counters differ across identical runs: (%d,%d,%d) vs (%d,%d,%d)",
			a.Drops, a.Retransmits, a.Backoffs, b.Drops, b.Retransmits, b.Backoffs)
	}
	if a.Events != b.Events || a.MeanContinuity != b.MeanContinuity {
		t.Errorf("run diverged: events %d vs %d, continuity %v vs %v",
			a.Events, b.Events, a.MeanContinuity, b.MeanContinuity)
	}
}

func TestInvalidCongestionModelRejected(t *testing.T) {
	cfg := Default("TVAnts")
	cfg.Duration = time.Second
	cfg.Congestion = access.CongestionModel{QueueDepth: -1}
	if _, err := Run(cfg); err == nil {
		t.Error("negative queue depth accepted")
	}
}
