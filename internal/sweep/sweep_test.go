package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/scenario"
	"napawine/internal/study"
)

// run executes st on the given worker count and regroups it; a nameless
// study is named here so every test literal stays one screen.
func run(st study.Study, workers int) (*Result, error) {
	st.Name = "sweep"
	res, err := study.Run(context.Background(), &st, study.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	return Of(res), nil
}

// synthetic builds a Result with hand-written summaries so aggregation can
// be checked against exact arithmetic, no simulation involved.
func synthetic() *Result {
	mk := func(seed int64, base float64) experiment.Summary {
		s := experiment.Summary{App: "PPLive", Seed: seed}
		s.RxKbpsMean = base
		s.RxKbpsMax = base * 2
		s.SelfBiasContrib.PeerPct = base
		s.SelfBiasContrib.BytePct = base
		s.SelfBiasAll.PeerPct = base
		s.SelfBiasAll.BytePct = base
		cell := experiment.SummaryCell{Property: "AS"}
		for i := range cell.Vals {
			cell.Vals[i] = base
			cell.Valid[i] = true
		}
		dead := experiment.SummaryCell{Property: "BW"} // never valid
		s.TableIV = []experiment.SummaryCell{cell, dead}
		return s
	}
	return &Result{
		Seeds: []int64{1, 2},
		Groups: []Group{{
			App: "PPLive", Label: "PPLive",
			Summaries: []experiment.Summary{mk(1, 10), mk(2, 14)},
		}},
	}
}

func TestAggregationExact(t *testing.T) {
	res := synthetic()
	// Two trials 10 and 14: mean 12, sample sd sqrt(8), stderr 2.0.
	var b strings.Builder
	if err := res.TableII().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "12±2") {
		t.Errorf("Table II should contain RX mean cell 12±2:\n%s", out)
	}
	if !strings.Contains(out, "24±4") {
		t.Errorf("Table II should contain RX max cell 24±4:\n%s", out)
	}

	b.Reset()
	if err := res.TableIII().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "12.0±2.0") {
		t.Errorf("Table III should contain 12.0±2.0:\n%s", b.String())
	}

	b.Reset()
	if err := res.TableIV().Render(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "12.0±2.0") {
		t.Errorf("Table IV AS row should aggregate to 12.0±2.0:\n%s", out)
	}
	// The BW row had no valid trials in any column: all dashes.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "BW") {
			if strings.Count(line, "-") < 8 {
				t.Errorf("BW row should be all dashes: %q", line)
			}
		}
	}
}

func TestSingleTrialHasZeroError(t *testing.T) {
	res := synthetic()
	res.Groups[0].Summaries = res.Groups[0].Summaries[:1]
	res.Seeds = res.Seeds[:1]
	var b strings.Builder
	if err := res.TableIII().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "10.0±0.0") {
		t.Errorf("single trial should print ±0.0:\n%s", b.String())
	}
}

// TestOfFoldsTheSeedAxis checks the regrouping on a hand-built study
// result: seed is the innermost axis, so every contiguous run of
// len(Seeds) cells is one group, labelled App or App/Variant, in grid order.
func TestOfFoldsTheSeedAxis(t *testing.T) {
	res := &study.Result{Seeds: []int64{7, 8}}
	for _, app := range []string{"TVAnts", "PPLive"} {
		for _, vr := range []string{"", "blind"} {
			for _, seed := range res.Seeds {
				res.Cells = append(res.Cells, study.Cell{
					Index: len(res.Cells), App: app, Variant: vr, Scenario: "outage", Seed: seed,
					Done: true, Summary: experiment.Summary{App: app, Seed: seed},
				})
			}
		}
	}
	got := Of(res)
	if got.Trials() != 2 || got.Scenario != "outage" {
		t.Errorf("Trials = %d, Scenario = %q; want 2, outage", got.Trials(), got.Scenario)
	}
	var labels []string
	for _, g := range got.Groups {
		labels = append(labels, g.Label)
		if len(g.Summaries) != 2 || g.Summaries[0].Seed != 7 || g.Summaries[1].Seed != 8 {
			t.Errorf("group %s summaries = %+v, want seeds 7, 8", g.Label, g.Summaries)
		}
		if g.Summaries[0].App != g.App {
			t.Errorf("group %s holds a summary of %s", g.Label, g.Summaries[0].App)
		}
	}
	want := []string{"TVAnts", "TVAnts/blind", "PPLive", "PPLive/blind"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
}

func TestSweepUnknownApp(t *testing.T) {
	_, err := run(study.Study{Apps: []string{"Joost"}, Trials: 1}, 0)
	if err == nil || !strings.Contains(err.Error(), "Joost") {
		t.Errorf("unknown app should fail fast, got %v", err)
	}
}

func TestSweepVariantsGroupingAndLabels(t *testing.T) {
	res, err := run(study.Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{5},
		Duration:   study.Duration(20 * time.Second),
		PeerFactor: 0.01, // floors at 50 peers
		Variants: []study.Variant{
			{}, // stock
			{Name: "blind", Mutate: func(p *overlay.Profile) { p.DiscoveryWeight = policy.Uniform{} }},
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	if res.Groups[0].Label != "TVAnts" || res.Groups[1].Label != "TVAnts/blind" {
		t.Errorf("labels = %q, %q", res.Groups[0].Label, res.Groups[1].Label)
	}
	for _, g := range res.Groups {
		if len(g.Summaries) != 1 {
			t.Errorf("group %s has %d summaries, want 1", g.Label, len(g.Summaries))
		}
		if g.Summaries[0].Events == 0 {
			t.Errorf("group %s summary has no events", g.Label)
		}
	}
}

// renderAll concatenates every table a sweep renders, for byte-comparison.
func renderAll(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	for _, err := range []error{
		res.TableII().Render(&b),
		res.TableIII().Render(&b),
		res.TableIV().Render(&b),
		res.HealthTable().Render(&b),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func TestSweepDeterministic(t *testing.T) {
	st := study.Study{
		Apps:       []string{"SopCast", "TVAnts"},
		BaseSeed:   11,
		Trials:     2,
		Duration:   study.Duration(30 * time.Second),
		PeerFactor: 0.05,
	}
	a, err := run(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := renderAll(t, a), renderAll(t, b)
	if ra != rb {
		t.Errorf("same spec produced different tables:\n--- first ---\n%s\n--- second ---\n%s", ra, rb)
	}
	if !strings.Contains(ra, "±") {
		t.Errorf("aggregated tables should carry error bars:\n%s", ra)
	}
}

// TestScenarioSeriesDeterministicAcrossWorkers is the contract behind the
// CLI's headline: the same scenario spec and seeds must reproduce
// byte-identical time-series and awareness tables no matter how the trials
// are spread over workers.
func TestScenarioSeriesDeterministicAcrossWorkers(t *testing.T) {
	st := study.Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{3, 4},
		Duration:   study.Duration(30 * time.Second),
		PeerFactor: 0.05,
		Scenarios:  []study.Scenario{{Name: "flashcrowd"}},
	}
	render := func(workers int) string {
		res, err := run(st, workers)
		if err != nil {
			t.Fatal(err)
		}
		series := res.SeriesTable()
		if series == nil {
			t.Fatal("scenario sweep produced no series table")
		}
		var b strings.Builder
		for _, err := range []error{
			series.Render(&b),
			res.TableIV().Render(&b),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Errorf("worker count changed scenario output:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "flashcrowd") {
		t.Errorf("series table does not name the scenario:\n%s", serial)
	}
}

func TestSweepWithoutScenarioHasNoSeriesTable(t *testing.T) {
	res := synthetic()
	if tab := res.SeriesTable(); tab != nil {
		t.Errorf("scenario-less sweep grew a series table: %v", tab.Title)
	}
}

func TestSweepUnknownScenario(t *testing.T) {
	_, err := run(study.Study{Apps: []string{"TVAnts"}, Trials: 1, Scenarios: []study.Scenario{{Name: "worldcup"}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "worldcup") {
		t.Errorf("unknown scenario should fail fast, got %v", err)
	}
}

// TestSweepSeriesShowsTrackerOutage: the aggregated series must carry the
// tracker column, or outage windows would be invisible in replicated runs.
func TestSweepSeriesShowsTrackerOutage(t *testing.T) {
	res, err := run(study.Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{6},
		Duration:   study.Duration(40 * time.Second),
		PeerFactor: 0.05,
		Scenarios:  []study.Scenario{{Name: "outage"}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.SeriesTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "DOWN") || !strings.Contains(out, "up") {
		t.Errorf("aggregated outage series does not show the tracker window:\n%s", out)
	}
}

func TestSweepUnknownStrategy(t *testing.T) {
	_, err := run(study.Study{Apps: []string{"TVAnts"}, Trials: 1, Strategies: []string{"newest"}}, 0)
	if err == nil || !strings.Contains(err.Error(), "newest") {
		t.Errorf("unknown strategy should fail fast, got %v", err)
	}
}

// TestSweepStrategyDeterministicAcrossWorkers plumbs a non-default chunk
// strategy through a replicated battery: the strategy must actually change
// the traffic (different tables than stock) while staying byte-identical
// across worker counts — ordering ties inside a strategy may never fall
// back to scheduling luck.
func TestSweepStrategyDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int, strategy string) string {
		res, err := run(study.Study{
			Apps:       []string{"TVAnts"},
			Seeds:      []int64{3, 4},
			Duration:   study.Duration(30 * time.Second),
			PeerFactor: 0.05,
			Strategies: []string{strategy},
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res)
	}
	serial, parallel := render(1, "rarest"), render(4, "rarest")
	if serial != parallel {
		t.Errorf("worker count changed strategy-sweep output:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
	if stock := render(1, ""); stock == serial {
		t.Error("rarest-first sweep rendered byte-identical tables to the stock strategy; the knob is not plumbed through")
	}
}

// TestSweepLeavesScenarioSpecUnmodified is the shared-pointer regression
// guard: the sweep hands every parallel worker its own deep copy, so the
// caller's Spec must come back bit-for-bit identical — and the runs must
// not be able to corrupt each other through it.
func TestSweepLeavesScenarioSpecUnmodified(t *testing.T) {
	scn, err := scenario.ByName("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	want := scn.Clone()
	_, err = run(study.Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{3, 4},
		Duration:   study.Duration(20 * time.Second),
		PeerFactor: 0.05,
		Scenarios:  []study.Scenario{{Spec: scn}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scn, want) {
		t.Errorf("sweep mutated the caller's scenario spec:\n before %+v\n after  %+v", want, scn)
	}
}

// TestSweepFileSpecMatchesNamedScenario: a ScenarioSpec decoded from JSON
// must reproduce the named registry run byte-for-byte — the file codec adds
// a parser, never a different simulation.
func TestSweepFileSpecMatchesNamedScenario(t *testing.T) {
	render := func(scn study.Scenario) string {
		res, err := run(study.Study{
			Apps:       []string{"TVAnts"},
			Seeds:      []int64{5},
			Duration:   study.Duration(20 * time.Second),
			PeerFactor: 0.05,
			Scenarios:  []study.Scenario{scn},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		series := res.SeriesTable()
		if series == nil {
			t.Fatal("scenario sweep produced no series table")
		}
		var b strings.Builder
		if err := series.Render(&b); err != nil {
			t.Fatal(err)
		}
		if err := res.TableII().Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var buf strings.Builder
	reg, _ := scenario.ByName("flashcrowd")
	if err := scenario.Encode(&buf, reg); err != nil {
		t.Fatal(err)
	}
	decoded, err := scenario.DecodeBytes([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := render(study.Scenario{Name: "flashcrowd"}), render(study.Scenario{Spec: decoded})
	if a != b {
		t.Errorf("file-decoded spec diverged from the named scenario:\n--- named ---\n%s\n--- file ---\n%s", a, b)
	}
	if !strings.Contains(b, "flashcrowd") {
		t.Errorf("file-spec series table not labeled with the spec name:\n%s", b)
	}
}

func TestSweepInvalidScenarioSpecFails(t *testing.T) {
	_, err := run(study.Study{
		Apps:      []string{"TVAnts"},
		Trials:    1,
		Scenarios: []study.Scenario{{Spec: &scenario.Spec{}}}, // nameless: invalid
	}, 0)
	if err == nil {
		t.Fatal("invalid scenario spec accepted")
	}
}
