package napawine_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"napawine"
)

// runBattery executes the full three-app battery once at miniature scale
// and caches it for every assertion in this file.
var battery []*napawine.Result

func getBattery(t *testing.T) []*napawine.Result {
	t.Helper()
	if battery != nil {
		return battery
	}
	results, err := napawine.RunAll(&napawine.Study{
		Name:       "battery",
		BaseSeed:   99,
		Duration:   napawine.StudyDuration(2 * time.Minute),
		PeerFactor: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	battery = results
	return results
}

func TestRunAllOrderAndHealth(t *testing.T) {
	results := getBattery(t)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	want := []string{"PPLive", "SopCast", "TVAnts"}
	for i, r := range results {
		if r.App != want[i] {
			t.Errorf("results[%d] = %s, want %s", i, r.App, want[i])
		}
		if r.MeanContinuity < 0.6 {
			t.Errorf("%s continuity = %.2f (swarm unhealthy)", r.App, r.MeanContinuity)
		}
		if len(r.Observations) == 0 {
			t.Errorf("%s produced no observations", r.App)
		}
	}
}

func TestPublicTablesRender(t *testing.T) {
	results := getBattery(t)
	var b strings.Builder
	for _, tab := range []*napawine.Table{
		napawine.TableII(results),
		napawine.TableIII(results),
		napawine.TableIV(results),
	} {
		b.Reset()
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		for _, app := range napawine.Apps() {
			if !strings.Contains(b.String(), app) {
				t.Errorf("table %q missing %s", tab.Title, app)
			}
		}
	}
	b.Reset()
	if err := napawine.RenderFigure1(&b, results); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := napawine.RenderFigure2(&b, results); err != nil {
		t.Fatal(err)
	}
}

// The paper's qualitative conclusions must hold end-to-end through the
// public API, even at miniature scale.
func TestPaperConclusionsHold(t *testing.T) {
	results := getBattery(t)
	byApp := map[string]*napawine.Result{}
	for _, r := range results {
		byApp[r.App] = r
	}
	cell := func(app, prop string) napawine.TableIVCell {
		for _, c := range napawine.ComputeTableIV(byApp[app]) {
			if c.Property == prop {
				return c
			}
		}
		t.Fatalf("missing %s/%s", app, prop)
		return napawine.TableIVCell{}
	}

	// 1. Every application prefers high-bandwidth peers, byte-wise more
	// than peer-wise.
	for _, app := range napawine.Apps() {
		bw := cell(app, "BW")
		if !bw.BDPrime.Valid() || bw.BDPrime.BytePct < 60 {
			t.Errorf("%s BW B'D = %.1f, want strong", app, bw.BDPrime.BytePct)
		}
		if bw.BDPrime.BytePct < bw.PDPrime.PeerPct {
			t.Errorf("%s BW byte preference below peer preference", app)
		}
	}

	// 2. TVAnts has the strongest same-AS peer discovery.
	tvAS := cell("TVAnts", "AS")
	scAS := cell("SopCast", "AS")
	if tvAS.PDPrime.PeerPct <= scAS.PDPrime.PeerPct {
		t.Errorf("TVAnts P'D(AS)=%.1f should exceed SopCast's %.1f",
			tvAS.PDPrime.PeerPct, scAS.PDPrime.PeerPct)
	}

	// 3. No application shows a real HOP preference: the paper's
	// signature is B′ ≈ P′ on the HOP row ("almost no difference emerges
	// comparing P′ and B′"), which is scale-free — the absolute level
	// depends on where the fixed 19-hop threshold cuts this world's
	// distance distribution.
	for _, app := range napawine.Apps() {
		hop := cell(app, "HOP")
		if !hop.BDPrime.Valid() {
			continue
		}
		if diff := hop.BDPrime.BytePct - hop.PDPrime.PeerPct; diff > 25 || diff < -25 {
			t.Errorf("%s HOP B'D=%.1f vs P'D=%.1f: byte/peer divergence signals a preference",
				app, hop.BDPrime.BytePct, hop.PDPrime.PeerPct)
		}
	}
}

func TestHopSweepAPI(t *testing.T) {
	results := getBattery(t)
	tab, err := napawine.HopSweep(results[1], 17, 21)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, th := range []string{"17", "19", "21"} {
		if !strings.Contains(b.String(), th) {
			t.Errorf("sweep missing threshold %s", th)
		}
	}
	if _, err := napawine.HopSweep(results[0], 10, 5); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := napawine.HopSweep(results[0], 0, 5); err == nil {
		t.Error("zero lower bound should fail")
	}
}

func TestProfileVariantAPI(t *testing.T) {
	base, err := napawine.ProfileOf(napawine.TVAnts)
	if err != nil {
		t.Fatal(err)
	}
	v := napawine.ProfileVariant(base, "tv-blind", func(p *napawine.Profile) {
		p.DiscoveryWeight = napawine.Uniform{}
	})
	if v.Name != "tv-blind" || base.Name != "TVAnts" {
		t.Error("variant naming wrong")
	}
	if _, err := napawine.ProfileOf("Babelgum"); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestDefaultConfigKnobs(t *testing.T) {
	cfg := napawine.DefaultConfig(napawine.PPLive)
	if cfg.App != napawine.PPLive || cfg.World.Peers == 0 {
		t.Error("default config incomplete")
	}
}

// TestSweepAPI exercises the replicated battery through the facade: three
// applications × five seeds in parallel, reduced to aggregated tables with
// error bars. Miniature scale keeps the 15 runs fast.
func TestSweepAPI(t *testing.T) {
	sres, err := napawine.RunStudy(context.Background(), &napawine.Study{
		Name:       "sweep",
		BaseSeed:   301,
		Trials:     5,
		Duration:   napawine.StudyDuration(20 * time.Second),
		PeerFactor: 0.02, // floors at 50 peers per swarm
	})
	if err != nil {
		t.Fatal(err)
	}
	res := napawine.SweepTables(sres)
	if got := res.Trials(); got != 5 {
		t.Fatalf("Trials = %d, want 5", got)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	wantApps := []string{"PPLive", "SopCast", "TVAnts"}
	for i, g := range res.Groups {
		if g.Label != wantApps[i] {
			t.Errorf("group %d label = %q, want %q", i, g.Label, wantApps[i])
		}
		if len(g.Summaries) != 5 {
			t.Errorf("%s summaries = %d, want 5", g.Label, len(g.Summaries))
		}
		seen := map[int64]bool{}
		for _, s := range g.Summaries {
			if s.App != g.App {
				t.Errorf("summary app %q in group %q", s.App, g.App)
			}
			seen[s.Seed] = true
		}
		if len(seen) != 5 {
			t.Errorf("%s has duplicate seeds: %v", g.Label, seen)
		}
	}
	var b strings.Builder
	for _, tab := range []*napawine.Table{
		res.TableII(), res.TableIII(), res.TableIV(), res.HealthTable(),
	} {
		b.Reset()
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "±") {
			t.Errorf("aggregated table lacks error bars:\n%s", b.String())
		}
		for _, app := range wantApps {
			if !strings.Contains(b.String(), app) {
				t.Errorf("table missing %s row:\n%s", app, b.String())
			}
		}
	}
}

// TestSummarizeMatchesSingleRunTables pins the per-run reduction to the
// single-run table pipeline: a Summary must carry exactly the numbers the
// unreplicated Table II/III code computes from the full Result.
func TestSummarizeMatchesSingleRunTables(t *testing.T) {
	r := getBattery(t)[1] // SopCast
	s := napawine.Summarize(r)
	if s.App != r.App {
		t.Errorf("summary app = %q, want %q", s.App, r.App)
	}
	var rx float64
	for _, p := range r.PerProbe {
		rx += p.RxKbps
	}
	rx /= float64(len(r.PerProbe))
	if diff := s.RxKbpsMean - rx; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("RxKbpsMean = %v, want %v", s.RxKbpsMean, rx)
	}
	if len(s.TableIV) != 5 {
		t.Errorf("TableIV cells = %d, want 5 properties", len(s.TableIV))
	}
	if s.Events != r.Events || s.MeanContinuity != r.MeanContinuity {
		t.Error("summary health fields diverge from result")
	}
}

// TestLeanLedgerPublicRun pins Config.LeanLedger through the public API: a
// lean run must be observably identical to a full run (same events, same
// observations, same series) while keeping resident ledger memory O(1) —
// no per-peer or per-pair maps — and the scenario series O(buckets).
func TestLeanLedgerPublicRun(t *testing.T) {
	run := func(lean bool) *napawine.Result {
		cfg := napawine.DefaultConfig(napawine.PPLive)
		cfg.Seed = 321
		cfg.Duration = 60 * time.Second
		cfg.World.Peers = 60
		cfg.LeanLedger = lean
		cfg.Scenario = &napawine.ScenarioSpec{Name: "steady"}
		r, err := napawine.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := run(false)
	lean := run(true)

	if full.Events != lean.Events {
		t.Fatalf("lean run diverged: %d events vs %d", lean.Events, full.Events)
	}
	if !lean.Ledger.Lean() || full.Ledger.Lean() {
		t.Fatalf("Lean() flags wrong: lean=%v full=%v", lean.Ledger.Lean(), full.Ledger.Lean())
	}
	if lean.Ledger.VideoByPair != nil || lean.Ledger.VideoRx != nil ||
		lean.Ledger.VideoTx != nil || lean.Ledger.ChunksServed != nil {
		t.Error("lean ledger allocated per-peer maps")
	}
	if lean.Ledger.VideoTotal != full.Ledger.VideoTotal ||
		lean.Ledger.VideoIntraAS != full.Ledger.VideoIntraAS ||
		lean.Ledger.SignalTotal != full.Ledger.SignalTotal {
		t.Error("lean scalar totals diverged from full run")
	}
	if lean.MeanContinuity != full.MeanContinuity || lean.VideoBytes != full.VideoBytes {
		t.Errorf("summary stats diverged: continuity %v vs %v, video %d vs %d",
			lean.MeanContinuity, full.MeanContinuity, lean.VideoBytes, full.VideoBytes)
	}
	// Observations carry NaN fields (DeepEqual-hostile), so compare the
	// rendered table bytes — the observable contract — instead.
	if len(lean.Observations) != len(full.Observations) {
		t.Errorf("observation counts diverged: %d vs %d", len(lean.Observations), len(full.Observations))
	}
	render := func(r *napawine.Result) string {
		var b strings.Builder
		for _, tab := range []*napawine.Table{
			napawine.TableII([]*napawine.Result{r}),
			napawine.TableIV([]*napawine.Result{r}),
		} {
			if err := tab.Render(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if render(lean) != render(full) {
		t.Error("rendered tables diverged between lean and full runs")
	}
	if !reflect.DeepEqual(lean.Series, full.Series) {
		t.Error("series diverged between lean and full runs")
	}
	if len(lean.Series) == 0 || len(lean.Series) > 96 {
		t.Errorf("series has %d buckets, want 1..96 (scenario.MaxBuckets)", len(lean.Series))
	}
}
