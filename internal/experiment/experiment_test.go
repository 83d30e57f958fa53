package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"napawine/internal/apps"
	"napawine/internal/chunkstream"
	"napawine/internal/core"
	"napawine/internal/golden"
	"napawine/internal/overlay"
	"napawine/internal/report"
	"napawine/internal/scenario"
	"napawine/internal/world"
)

// smallConfig shrinks a default config to test scale.
func smallConfig(app string, seed int64) Config {
	cfg := Default(app)
	cfg.Seed = seed
	cfg.Duration = 3 * time.Minute
	cfg.World.Seed = seed
	cfg.World.Peers = 160
	cfg.World.ProbeASBackground = 4
	return cfg
}

// runSmall caches one run per app for the whole test file (runs are the
// expensive part; assertions are cheap).
var cache = map[string]*Result{}

func runSmall(t *testing.T, app string) *Result {
	t.Helper()
	if r, ok := cache[app]; ok {
		return r
	}
	r, err := Run(smallConfig(app, 11))
	if err != nil {
		t.Fatal(err)
	}
	cache[app] = r
	return r
}

func TestRunProducesHealthySwarm(t *testing.T) {
	r := runSmall(t, "SopCast")
	if r.MeanContinuity < 0.75 {
		t.Errorf("mean continuity = %.2f, want ≥ 0.75 (swarm must sustain the stream)", r.MeanContinuity)
	}
	if len(r.PerProbe) != 44 {
		t.Errorf("probes = %d, want 44", len(r.PerProbe))
	}
	if len(r.Observations) == 0 {
		t.Fatal("no observations at all")
	}
	if r.Unlocated != 0 {
		t.Errorf("unlocated peers = %d, want 0 in synthetic world", r.Unlocated)
	}
	if r.Events == 0 {
		t.Error("no events processed")
	}
}

func TestProbesReceiveStream(t *testing.T) {
	r := runSmall(t, "SopCast")
	// Non-firewalled probes should pull roughly the stream rate; firewalled
	// ones (ENST) can still download since they initiate connections.
	healthy := 0
	for _, p := range r.PerProbe {
		if p.RxKbps > 250 {
			healthy++
		}
	}
	if healthy < len(r.PerProbe)*3/4 {
		t.Errorf("only %d/%d probes pull ≥250 kbps", healthy, len(r.PerProbe))
	}
}

func TestBWRowShape(t *testing.T) {
	r := runSmall(t, "SopCast")
	var bw SummaryCell
	for _, c := range r.TableIV {
		if c.Property == "BW" {
			bw = c
		}
	}
	// Download side: strong high-bandwidth preference (paper: P′ 83–86,
	// B′ 96–98). Bands widened for the scaled world. Columns are
	// B'D, P'D, BD, PD, B'U, P'U, BU, PU.
	if !bw.Valid[0] {
		t.Fatal("BW download metrics empty")
	}
	if bw.Vals[1] < 60 {
		t.Errorf("P'D(BW) = %.1f, want strong preference (>60)", bw.Vals[1])
	}
	if bw.Vals[0] < 80 {
		t.Errorf("B'D(BW) = %.1f, want very strong preference (>80)", bw.Vals[0])
	}
	if bw.Vals[0] <= bw.Vals[1] {
		t.Errorf("B'D(BW)=%.1f should exceed P'D(BW)=%.1f (fast peers carry more each)",
			bw.Vals[0], bw.Vals[1])
	}
	// Upload side: unmeasurable, like the dashes in the paper.
	for col := 4; col < 8; col++ {
		if bw.Valid[col] {
			t.Errorf("BW upload column %s should be unmeasurable from passive traces", TableIVColumns[col])
		}
	}
}

func TestHopMedianInPaperRegime(t *testing.T) {
	r := runSmall(t, "SopCast")
	if r.HopMedian < 10 || r.HopMedian > 28 {
		t.Errorf("hop median = %.0f, want within [10,28] (paper: 18-20)", r.HopMedian)
	}
}

func TestSelfBiasPresent(t *testing.T) {
	// TVAnts is the paper's strongest self-bias case (Table III: 56% of
	// bytes from 30% of peers): its AS-biased discovery steers probes
	// toward the probe-dense institutional ASes.
	r := runSmall(t, "TVAnts")
	contrib := core.ComputeSelfBias(r.Observations, r.Cfg.Contrib, true)
	if contrib.PeerPct <= 0 {
		t.Fatal("no probe-to-probe contributions at all")
	}
	if contrib.BytePct <= contrib.PeerPct {
		t.Errorf("TVAnts self-bias bytes (%.1f) should exceed peers (%.1f)",
			contrib.BytePct, contrib.PeerPct)
	}
	// SopCast, with no locality knob, must sit near neutral: probes in a
	// world where high-bandwidth access is common are not special.
	sc := runSmall(t, "SopCast")
	scBias := core.ComputeSelfBias(sc.Observations, sc.Cfg.Contrib, true)
	if scBias.BytePct < 0.6*scBias.PeerPct {
		t.Errorf("SopCast self-bias bytes (%.1f) collapsed far below peers (%.1f)",
			scBias.BytePct, scBias.PeerPct)
	}
}

// TestTableRendering pins what the cached SopCast run renders, every table
// and figure, in testdata/sopcast-tables.txt.
func TestTableRendering(t *testing.T) {
	results := []*Result{runSmall(t, "SopCast")}
	var b bytes.Buffer
	for _, tab := range []*report.Table{TableII(results), TableIII(results), TableIV(results)} {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(RenderFigure1(&b, results), RenderFigure2(&b, results)); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/sopcast-tables.txt", b.Bytes())
}

func TestFigure1Normalized(t *testing.T) {
	r := runSmall(t, "SopCast")
	g := ComputeFigure1(r)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	for name, series := range map[string][]float64{"peers": g.Peers, "rx": g.RX, "tx": g.TX} {
		if s := sum(series); s < 99.9 || s > 100.1 {
			t.Errorf("%s shares sum to %.2f, want 100", name, s)
		}
	}
	// CN must be the largest named country group (the channel is
	// Chinese). At this shrunken test scale the probes and their
	// same-AS neighbours dilute CN's absolute share, so dominance over
	// the probe countries is the scale-independent assertion.
	for i, label := range g.Labels[1:5] {
		if g.Peers[0] <= g.Peers[i+1] {
			t.Errorf("CN peer share %.1f not above %s share %.1f", g.Peers[0], label, g.Peers[i+1])
		}
	}
	if g.Peers[0] < 25 {
		t.Errorf("CN peer share = %.1f, want ≥ 25", g.Peers[0])
	}
}

func TestFigure2PairAccounting(t *testing.T) {
	r := runSmall(t, "SopCast")
	f := ComputeFigure2(r)
	// Pair accounting is fixed by Table I. Institutional high-bw probes:
	// AS1=4, AS2=14 (PoliTO 9 + UniTN 5), AS3=4, AS4=4, AS5=3, AS6=8.
	// Off-diagonal directed pairs: 37² − Σn² = 1369 − 317 = 1052.
	// Diagonal pairs survive only across subnets, i.e. PoliTO↔UniTN
	// inside AS2: 9·5·2 = 90. Total 1142.
	if f.Pairs != 1142 {
		t.Errorf("directed pairs = %d, want 1142", f.Pairs)
	}
	if !f.ROk {
		t.Error("R should be computable for SopCast run")
	}
	// A run with no probe pair has no R.
	var buf strings.Builder
	if err := RenderFigure2(&buf, []*Result{{World: &world.World{}}}); err != nil || !strings.Contains(buf.String(), "(R=n/a)") {
		t.Errorf("Figure 2 without pairs: %v\n%s", err, buf.String())
	}
}

func TestSortResults(t *testing.T) {
	for _, in := range [][]string{{"TVAnts", "PPLive", "SopCast"}, {"SopCast", "TVAnts", "PPLive"}} {
		var rs []*Result
		for _, app := range in {
			rs = append(rs, &Result{Summary: Summary{App: app}})
		}
		SortResults(rs)
		if rs[0].App != "PPLive" || rs[1].App != "SopCast" || rs[2].App != "TVAnts" {
			t.Errorf("%v sorted to %s,%s,%s", in, rs[0].App, rs[1].App, rs[2].App)
		}
	}
}

func TestUnknownAppFails(t *testing.T) {
	if _, err := Run(Config{App: "Zattoo", Seed: 1, Duration: time.Second}); err == nil {
		t.Error("unknown app should fail")
	}
}

// TestInvalidScenarioFails: the run validates its scenario before building
// a world, whose own check (the world spec is invalid too) would fail first.
func TestInvalidScenarioFails(t *testing.T) {
	cfg := Default("TVAnts")
	cfg.World.HighBwFraction = 2
	cfg.Scenario = &scenario.Spec{}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "without a name") {
		t.Errorf("nameless scenario: err = %v", err)
	}
}

// TestWindowPastAdvertFails: a window no advert can carry is an error before
// the world is built, not a panic at the first signalling tick.
func TestWindowPastAdvertFails(t *testing.T) {
	cfg := Config{App: "TVAnts", Seed: 1, Duration: time.Second, BufferWindow: chunkstream.MaxWindow + 1}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "BufferWindow") {
		t.Errorf("window %d: err = %v, want one naming BufferWindow", cfg.BufferWindow, err)
	}
}

// TestRenamedProfileRunsAlike: a run depends on what its profile does, not
// on what it is called. A renamed copy of each stock profile, changed in
// nothing else, gives the stock run's Summary byte for byte. Seeds are plain
// integers and Summary carries no profile name, so any difference is a draw
// or a choice that reads the name.
func TestRenamedProfileRunsAlike(t *testing.T) {
	for _, app := range []string{"PPLive", "SopCast", "TVAnts"} {
		stock, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(app, 11)
		cfg.Profile = apps.Variant(stock, "x", func(*overlay.Profile) {})
		renamed, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fmt.Sprintf("%+v", runSmall(t, app).Summary), fmt.Sprintf("%+v", renamed.Summary); a != b {
			t.Errorf("%s renamed x summarizes\n%s\nthe stock profile\n%s", app, b, a)
		}
	}
}

func TestDefaultsScaleWithApp(t *testing.T) {
	pp, sc, tv := Default("PPLive"), Default("SopCast"), Default("TVAnts")
	if !(pp.World.Peers > sc.World.Peers && sc.World.Peers > tv.World.Peers) {
		t.Error("world sizes must follow PPLive > SopCast > TVAnts")
	}
	// An application of the caller's own (run with its Profile) gets 500.
	if got := Default("Zattoo").World.Peers; got != 500 {
		t.Errorf("Default(Zattoo) peers = %d, want 500", got)
	}
}

// TestLossIsDropsOverOffered: the loss rate is drops over chunks offered
// (served or dropped), 0 when nothing was offered.
func TestLossIsDropsOverOffered(t *testing.T) {
	for _, tc := range []struct {
		served, drops int64
		want          float64
	}{{0, 0, 0}, {0, 1, 100}, {1, 0, 0}, {3, 1, 25}} {
		s := Summarize(&Result{Summary: Summary{ChunksServed: tc.served, Drops: tc.drops}})
		if s.LossPct != tc.want {
			t.Errorf("%d served, %d dropped: loss %v%%, want %v%%", tc.served, tc.drops, s.LossPct, tc.want)
		}
	}
}

// TestUnsetFieldsTakeTheirDefaults: a zero field takes its default, a set
// one (1 included) is kept, and Default returns a config already filled.
func TestUnsetFieldsTakeTheirDefaults(t *testing.T) {
	var got Config
	got.fillDefaults()
	want := Config{Duration: 10 * time.Minute, BufferWindow: 90, TrackerBatch: 24, UplinkBusyCap: 2 * time.Second,
		BackgroundJoinWindow: time.Minute, Contrib: core.DefaultContrib}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero config filled to %+v, want %+v", got, want)
	}
	set := Config{Seed: 7, Duration: 1, BufferWindow: 1, TrackerBatch: 1, UplinkBusyCap: 1, BackgroundJoinWindow: 1,
		Contrib: core.ContribThresholds{MinBytes: 1}, World: world.Spec{Seed: 3}}
	got = set
	got.fillDefaults()
	if !reflect.DeepEqual(got, set) {
		t.Errorf("set config filled to %+v, want it kept", got)
	}
	got = Config{Seed: 7}
	if got.fillDefaults(); got.World.Seed != 7 {
		t.Errorf("world seed %d, want the run's 7", got.World.Seed)
	}
	cfg := Default("TVAnts")
	filled := cfg
	filled.fillDefaults()
	if !reflect.DeepEqual(cfg, filled) {
		t.Errorf("Default is not filled: %+v", cfg)
	}
}

// TestObservationsOrderIsDeterministic: two runs at one seed hand back equal
// observations in an equal order — per probe, the order its remotes were first
// seen. A reduction that walks a Go map would order them differently from run
// to run.
func TestObservationsOrderIsDeterministic(t *testing.T) {
	cfg := smallConfig("TVAnts", 5)
	cfg.Duration = 30 * time.Second
	var runs [2]*Result
	for i := range runs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	if len(runs[0].Observations) < 100 {
		t.Fatalf("only %d observations: too few for an order to show", len(runs[0].Observations))
	}
	if !reflect.DeepEqual(runs[0].Observations, runs[1].Observations) {
		t.Error("two runs at one seed ordered their observations differently")
	}
}

// TestSourceLoadMetrics: the study comparison metrics must be populated on
// every run — the source uploads, its share is measurable, and chunks
// record diffusion delays.
func TestSourceLoadMetrics(t *testing.T) {
	r := runSmall(t, "SopCast")
	if r.SourceKbps <= 0 {
		t.Errorf("SourceKbps = %v, want > 0", r.SourceKbps)
	}
	if r.VideoBytes <= 0 || r.SourceSharePct <= 0 || r.SourceSharePct > 100 {
		t.Errorf("source share = %v%% of %d bytes", r.SourceSharePct, r.VideoBytes)
	}
	if r.DiffusionChunks <= 0 || r.DiffusionDelayS <= 0 {
		t.Errorf("diffusion: %d chunks, mean %vs", r.DiffusionChunks, r.DiffusionDelayS)
	}
	// The mean delay is whole nanoseconds, as a time.Duration division
	// leaves it, before it turns into seconds.
	led := r.Ledger
	if want := (led.DiffusionDelaySum / time.Duration(led.DiffusionChunks)).Seconds(); r.DiffusionDelayS != want {
		t.Errorf("DiffusionDelayS = %v, want %v", r.DiffusionDelayS, want)
	}
}

// TestSourceLoadSurvivesFailover is the attribution regression guard:
// source load is accounted at send time against whichever node is the
// origin, so after a source-failover handoff the promoted backup's
// injection still counts. Under the old VideoTx[original-source] readout
// the post-handoff share collapsed toward the pre-failover fraction only.
func TestSourceLoadSurvivesFailover(t *testing.T) {
	scn, err := scenario.ByName("failover")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig("TVAnts", 11)
	cfg.World.Peers = 120
	cfg.Scenario = scn
	fo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := smallConfig("TVAnts", 11)
	base.World.Peers = 120
	steady, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if fo.SourceKbps <= 0 {
		t.Fatalf("failover run reports no source load at all")
	}
	// The failover blacks the feed out for 5%% of the run, so some drop is
	// expected — but with send-time attribution the share stays the same
	// order of magnitude as the steady run, not the pre-40%% stub.
	if fo.SourceSharePct < steady.SourceSharePct*0.5 {
		t.Errorf("failover source share %.1f%% collapsed vs steady %.1f%%: post-handoff injection not attributed",
			fo.SourceSharePct, steady.SourceSharePct)
	}
}

// TestNodesCountsTheBuiltWorld: Nodes counts exactly the nodes RunCtx adds
// to the overlay — the source plus every probe, background and deferred
// peer of the world it builds — with the deferred pool sized explicitly
// and by a scenario's factor.
func TestNodesCountsTheBuiltWorld(t *testing.T) {
	flash, err := scenario.ByName("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		mutate   func(*Config)
		deferred int
	}{
		{"stationary", func(*Config) {}, 0},
		{"explicit pool", func(c *Config) { c.World.ExtraPeers = 17 }, 17},
		{"scenario pool", func(c *Config) { c.Scenario = flash }, 160},
	} {
		cfg := smallConfig("TVAnts", 3)
		tc.mutate(&cfg)
		spec := cfg.World
		spec.ExtraPeers = tc.deferred
		w, err := world.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Deferred) != tc.deferred {
			t.Fatalf("%s: %d deferred peers, want %d", tc.name, len(w.Deferred), tc.deferred)
		}
		built := 1 + len(w.Probes) + len(w.Background) + len(w.Deferred)
		if got := cfg.Nodes(); got != float64(built) {
			t.Errorf("%s: Nodes() = %v, the world numbers %d", tc.name, got, built)
		}
	}
}

// TestRunRefusesTooManyNodesBeforeBuildingAWorld: a run whose nodes would
// need a peer id past overlay.MaxPeerID fails before world.Build. The world
// spec is also invalid, so reaching world.Build would report that instead
// (and never allocate a 2²⁴-node world).
func TestRunRefusesTooManyNodesBeforeBuildingAWorld(t *testing.T) {
	cfg := Default("TVAnts")
	cfg.World.HighBwFraction = 2
	for _, tc := range []struct {
		peers int
		scn   string
		want  string
	}{
		{1<<24 - 92, "", "16777217 nodes need peer ids up to 16777216, past the limit of 16777215"},
		{9_000_000, "flashcrowd", "18000093 nodes need peer ids up to 18000092, past the limit of 16777215"},
	} {
		cfg.World.Peers = tc.peers
		cfg.Scenario = nil
		if tc.scn != "" {
			spec, err := scenario.ByName(tc.scn)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scenario = spec
		}
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d peers @%q: Run() = %v, want an error containing %q", tc.peers, tc.scn, err, tc.want)
		}
	}
	// One node fewer takes exactly the last id, and the run goes on to the
	// world, whose own check then fails.
	cfg.World.Peers, cfg.Scenario = 1<<24-93, nil
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "HighBwFraction") {
		t.Errorf("2²⁴ − 93 peers: Run() = %v, want the world's HighBwFraction error", err)
	}
}

// TestScaledPastThePeerIDLimit: a factor that takes the background past the
// peer-id limit fails Run with the node-count error, before any world is
// built, on the library path that no study validates. A product that is not
// finite, or past 2⁵³, saturates at 2⁵³ instead of wrapping into a small
// swarm through the conversion to int.
func TestScaledPastThePeerIDLimit(t *testing.T) {
	for _, tc := range []struct {
		factor float64
		want   string
	}{
		{1e30, "9007199254741084 nodes need peer ids"},
		{math.Inf(1), "9007199254741084 nodes need peer ids"},
		{math.NaN(), "9007199254741084 nodes need peer ids"},
		{12_000, "16800093 nodes need peer ids up to 16800092"}, // 1 400 PPLive peers
	} {
		cfg := Default("PPLive")
		cfg.World.HighBwFraction = 2 // a built world would fail on this instead
		cfg.ScalePeers(tc.factor)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "past the limit of 16777215") {
			t.Errorf("ScalePeers(%v): Run() = %v, want the node-count error %q", tc.factor, err, tc.want)
		}
	}
}
