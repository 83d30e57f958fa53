package napawine_test

import (
	"context"
	"errors"
	"io"
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
	for _, tab := range []*napawine.Table{napawine.TableII(results), napawine.TableIII(results), napawine.TableIV(results)} {
		out := renderTables(t, tab).String()
		for _, app := range napawine.Apps() {
			if !strings.Contains(out, app) {
				t.Errorf("table %q missing %s", tab.Title, app)
			}
		}
	}
	if err := errors.Join(napawine.RenderFigure1(io.Discard, results), napawine.RenderFigure2(io.Discard, results)); err != nil {
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
	// A Table IV cell's columns run B'D, P'D, BD, PD, B'U, P'U, BU, PU:
	// vals[0] is byte-wise B'D, vals[1] peer-wise P'D, valid[i] marks a
	// measured column.
	cell := func(app, prop string) (vals [8]float64, valid [8]bool) {
		for _, c := range byApp[app].TableIV {
			if c.Property == prop {
				return c.Vals, c.Valid
			}
		}
		t.Fatalf("missing %s/%s", app, prop)
		return
	}

	// 1. Every application prefers high-bandwidth peers, byte-wise more
	// than peer-wise.
	for _, app := range napawine.Apps() {
		bw, valid := cell(app, "BW")
		if !valid[0] || bw[0] < 60 {
			t.Errorf("%s BW B'D = %.1f, want strong", app, bw[0])
		}
		if bw[0] < bw[1] {
			t.Errorf("%s BW byte preference below peer preference", app)
		}
	}

	// 2. TVAnts has the strongest same-AS peer discovery.
	tvAS, _ := cell("TVAnts", "AS")
	scAS, _ := cell("SopCast", "AS")
	if tvAS[1] <= scAS[1] {
		t.Errorf("TVAnts P'D(AS)=%.1f should exceed SopCast's %.1f", tvAS[1], scAS[1])
	}

	// 3. No application shows a real HOP preference: the paper's
	// signature is B′ ≈ P′ on the HOP row ("almost no difference emerges
	// comparing P′ and B′"), which is scale-free — the absolute level
	// depends on where the fixed 19-hop threshold cuts this world's
	// distance distribution.
	for _, app := range napawine.Apps() {
		hop, valid := cell(app, "HOP")
		if !valid[0] {
			continue
		}
		if diff := hop[0] - hop[1]; diff > 25 || diff < -25 {
			t.Errorf("%s HOP B'D=%.1f vs P'D=%.1f: byte/peer divergence signals a preference",
				app, hop[0], hop[1])
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
	// The least range: one threshold, at 1.
	if tab, err := napawine.HopSweep(results[0], 1, 1); err != nil || len(tab.Rows) != 1 {
		t.Errorf("HopSweep(1, 1) = %v, %v; want one row", tab, err)
	}
}

func TestProfileVariantAPI(t *testing.T) {
	base, err := napawine.ProfileOf(napawine.TVAnts)
	if err != nil {
		t.Fatal(err)
	}
	v := napawine.ProfileVariant(base, "tv-blind", func(p *napawine.Profile) {
		p.DiscoveryWeight = napawine.Bias{}
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
	res, err := napawine.RunStudy(context.Background(), &napawine.Study{
		Name:       "sweep",
		BaseSeed:   301,
		Trials:     5,
		Duration:   napawine.StudyDuration(20 * time.Second),
		PeerFactor: 0.02, // floors at 50 peers per swarm
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trials(); got != 5 {
		t.Fatalf("Trials = %d, want 5", got)
	}
	wantApps := []string{"PPLive", "SopCast", "TVAnts"}
	if len(res.Cells) != 15 {
		t.Fatalf("cells = %d, want 3 apps × 5 seeds", len(res.Cells))
	}
	for i, c := range res.Cells {
		// Seed is the innermost axis: five consecutive cells per app.
		if !c.Done || c.App != wantApps[i/5] || c.Summary.App != c.App || c.Seed != 301+int64(i%5) || c.Summary.Seed != c.Seed {
			t.Errorf("cell %d = %s seed %d (summary %s seed %d, done %v), want %s seed %d",
				i, c.App, c.Seed, c.Summary.App, c.Summary.Seed, c.Done, wantApps[i/5], 301+i%5)
		}
	}
	if rows := res.TableII().Rows; len(rows) != 3 {
		t.Fatalf("Table II has %d rows, want one per app", len(rows))
	}
	for _, tab := range []*napawine.Table{res.TableII(), res.TableIII(), res.TableIV(), res.HealthTable()} {
		out := renderTables(t, tab).String()
		if !strings.Contains(out, "±") {
			t.Errorf("aggregated table lacks error bars:\n%s", out)
		}
		for _, app := range wantApps {
			if !strings.Contains(out, app) {
				t.Errorf("table missing %s row:\n%s", app, out)
			}
		}
	}
}
