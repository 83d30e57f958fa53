package study

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/report"
	"napawine/internal/scenario"
)

// sweep executes st on the given worker count; a nameless study is named
// here so every test literal stays one screen.
func sweep(st Study, workers int) (*Result, error) {
	st.Name = "sweep"
	return Run(context.Background(), &st, WithWorkers(workers))
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
		Cells: []Cell{
			{Point: Point{Index: 0, App: "PPLive", Seed: 1}, Done: true, Summary: mk(1, 10)},
			{Point: Point{Index: 1, App: "PPLive", Seed: 2}, Done: true, Summary: mk(2, 14)},
		},
	}
}

func render(t *testing.T, tabs ...*report.Table) string {
	t.Helper()
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func TestAggregationExact(t *testing.T) {
	res := synthetic()
	// Two trials 10 and 14: mean 12, sample sd sqrt(8), stderr 2.0.
	out := render(t, res.TableII())
	if !strings.Contains(out, "12±2") {
		t.Errorf("Table II should contain RX mean cell 12±2:\n%s", out)
	}
	if !strings.Contains(out, "24±4") {
		t.Errorf("Table II should contain RX max cell 24±4:\n%s", out)
	}
	if out = render(t, res.TableIII()); !strings.Contains(out, "12.0±2.0") {
		t.Errorf("Table III should contain 12.0±2.0:\n%s", out)
	}
	out = render(t, res.TableIV())
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
	res.Cells = res.Cells[:1]
	res.Seeds = res.Seeds[:1]
	if out := render(t, res.TableIII()); !strings.Contains(out, "10.0±0.0") {
		t.Errorf("single trial should print ±0.0:\n%s", out)
	}
}

// TestBatteriesFoldTheSeedAxis checks the row enumeration on a hand-built
// result: one battery per (application, variant), labelled App or
// App/Variant, in grid order, each aggregating exactly its own seeds.
func TestBatteriesFoldTheSeedAxis(t *testing.T) {
	res := &Result{Seeds: []int64{7, 8}}
	for _, app := range []string{"TVAnts", "PPLive"} {
		for _, vr := range []string{"", "blind"} {
			for _, seed := range res.Seeds {
				res.Cells = append(res.Cells, Cell{
					Point: Point{Index: len(res.Cells), App: app, Variant: vr, Scenario: "outage", Seed: seed},
					Done:  true, Summary: experiment.Summary{App: app, Seed: seed, Events: uint64(len(res.Cells))},
				})
			}
		}
	}
	if res.Trials() != 2 {
		t.Errorf("Trials = %d, want 2", res.Trials())
	}
	want := []string{"TVAnts", "TVAnts/blind", "PPLive", "PPLive/blind"}
	if got := res.batteries(); !reflect.DeepEqual(got, want) {
		t.Errorf("batteries = %v, want %v", got, want)
	}
	events := healthColumns[2] // Events/run
	for i, label := range want {
		acc := res.accumulate(events, in(label))
		// Cells 2i and 2i+1 carry Events 2i and 2i+1.
		if acc.N() != 2 || acc.Mean() != float64(2*i)+0.5 {
			t.Errorf("battery %s folds %d runs to mean %v, want its own two (mean %v)",
				label, acc.N(), acc.Mean(), float64(2*i)+0.5)
		}
	}
}

// TestPartialResultSkipsUnfinishedCells: a cancelled run hands back cells
// that never ran with zero summaries; the replicated tables must average
// only the completed ones and print the dash for a battery with none,
// never fold the zeros in.
func TestPartialResultSkipsUnfinishedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, &Study{
		Name:       "partial",
		Apps:       []string{"TVAnts", "SopCast"},
		Seeds:      []int64{3, 4},
		Duration:   Duration(20 * time.Second),
		PeerFactor: 0.05,
	}, WithWorkers(1), WithObserver(&countingObserver{cancelAt: 1, cancel: cancel}))
	if !errors.Is(err, context.Canceled) || res == nil {
		t.Fatalf("Run = %v, %v; want a partial result and context.Canceled", res, err)
	}
	if !res.Cells[0].Done || res.Cells[1].Done || res.Cells[2].Done || res.Cells[3].Done {
		t.Fatalf("want exactly the first cell done, got %v %v %v %v",
			res.Cells[0].Done, res.Cells[1].Done, res.Cells[2].Done, res.Cells[3].Done)
	}
	rx := experiment.TableIIColumns[0] // RX kbps mean
	if acc := res.accumulate(rx, in("TVAnts")); acc.N() != 1 {
		t.Errorf("TVAnts mean stands on %d cells, want 1", acc.N())
	}
	tab := res.TableII()
	if len(tab.Rows) != 2 {
		t.Fatalf("Table II has %d rows, want one per battery", len(tab.Rows))
	}
	if want := report.MeanErr(res.Cells[0].Summary.RxKbpsMean, 0, 0); tab.Rows[0][1] != want || want == "0±0" {
		t.Errorf("TVAnts RX mean = %q, want the one finished run's %q (non-zero)", tab.Rows[0][1], want)
	}
	// SopCast ran nothing: every value cell of its rows is the dash.
	for _, tab := range []*report.Table{tab, res.TableIII(), res.TableIV(), res.HealthTable()} {
		for _, row := range tab.Rows {
			label := slices.Index(row, "SopCast")
			if label < 0 {
				continue
			}
			for _, cell := range row[label+1:] {
				if cell != "-" {
					t.Errorf("%s: unfinished cells were averaged in: %v", tab.Title, row)
					break
				}
			}
		}
	}
}

func TestSweepUnknownApp(t *testing.T) {
	_, err := sweep(Study{Apps: []string{"Joost"}, Trials: 1}, 0)
	if err == nil || !strings.Contains(err.Error(), "Joost") {
		t.Errorf("unknown app should fail fast, got %v", err)
	}
}

func TestSweepVariantsGroupingAndLabels(t *testing.T) {
	res, err := sweep(Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{5},
		Duration:   Duration(20 * time.Second),
		PeerFactor: 0.01, // floors at 50 peers
		Variants: []Variant{
			{}, // stock
			{Name: "blind", Blind: true},
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.batteries(), []string{"TVAnts", "TVAnts/blind"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batteries = %v, want %v", got, want)
	}
	events := healthColumns[2] // Events/run
	for _, label := range res.batteries() {
		if acc := res.accumulate(events, in(label)); acc.N() != 1 || acc.Mean() == 0 {
			t.Errorf("battery %s folds %d runs with mean events %v, want 1 run with events", label, acc.N(), acc.Mean())
		}
	}
}

// renderAll concatenates every table a replicated run renders, for
// byte-comparison.
func renderAll(t *testing.T, res *Result) string {
	t.Helper()
	return render(t, res.TableII(), res.TableIII(), res.TableIV(), res.HealthTable())
}

func TestSweepDeterministic(t *testing.T) {
	st := Study{
		Apps:       []string{"SopCast", "TVAnts"},
		BaseSeed:   11,
		Trials:     2,
		Duration:   Duration(30 * time.Second),
		PeerFactor: 0.05,
	}
	a, err := sweep(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep(st, 4)
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
	st := Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{3, 4},
		Duration:   Duration(30 * time.Second),
		PeerFactor: 0.05,
		Scenarios:  []Scenario{{Name: "flashcrowd"}},
	}
	renderWith := func(workers int) string {
		res, err := sweep(st, workers)
		if err != nil {
			t.Fatal(err)
		}
		series := res.SeriesTable()
		if series == nil {
			t.Fatal("scenario sweep produced no series table")
		}
		return render(t, series, res.TableIV())
	}
	serial, parallel := renderWith(1), renderWith(4)
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
	if arts := res.SeriesPlots(); arts != nil {
		t.Errorf("scenario-less sweep grew %d series plots", len(arts))
	}
}

func TestSweepUnknownScenario(t *testing.T) {
	_, err := sweep(Study{Apps: []string{"TVAnts"}, Trials: 1, Scenarios: []Scenario{{Name: "worldcup"}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "worldcup") {
		t.Errorf("unknown scenario should fail fast, got %v", err)
	}
}

// TestSweepSeriesShowsTrackerOutage: the aggregated series must carry the
// tracker column, or outage windows would be invisible in replicated runs.
func TestSweepSeriesShowsTrackerOutage(t *testing.T) {
	res, err := sweep(Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{6},
		Duration:   Duration(40 * time.Second),
		PeerFactor: 0.05,
		Scenarios:  []Scenario{{Name: "outage"}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, res.SeriesTable())
	if !strings.Contains(out, "DOWN") || !strings.Contains(out, "up") {
		t.Errorf("aggregated outage series does not show the tracker window:\n%s", out)
	}
}

func TestSweepUnknownStrategy(t *testing.T) {
	_, err := sweep(Study{Apps: []string{"TVAnts"}, Trials: 1, Strategies: []string{"newest"}}, 0)
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
	renderWith := func(workers int, strategy string) string {
		res, err := sweep(Study{
			Apps:       []string{"TVAnts"},
			Seeds:      []int64{3, 4},
			Duration:   Duration(30 * time.Second),
			PeerFactor: 0.05,
			Strategies: []string{strategy},
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res)
	}
	serial, parallel := renderWith(1, "rarest"), renderWith(4, "rarest")
	if serial != parallel {
		t.Errorf("worker count changed strategy-sweep output:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
	if stock := renderWith(1, ""); stock == serial {
		t.Error("rarest-first sweep rendered byte-identical tables to the stock strategy; the knob is not plumbed through")
	}
}

// TestSweepLeavesScenarioSpecUnmodified is the shared-pointer regression
// guard: the study hands every parallel worker its own deep copy, so the
// caller's Spec must come back bit-for-bit identical — and the runs must
// not be able to corrupt each other through it.
func TestSweepLeavesScenarioSpecUnmodified(t *testing.T) {
	scn, err := scenario.ByName("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	want := scn.Clone()
	_, err = sweep(Study{
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{3, 4},
		Duration:   Duration(20 * time.Second),
		PeerFactor: 0.05,
		Scenarios:  []Scenario{{Spec: scn}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scn, want) {
		t.Errorf("sweep mutated the caller's scenario spec:\n before %+v\n after  %+v", want, scn)
	}
}

// TestSweepFileSpecMatchesNamedScenario: a scenario spec decoded from JSON
// must reproduce the named registry run byte-for-byte — the file codec adds
// a parser, never a different simulation.
func TestSweepFileSpecMatchesNamedScenario(t *testing.T) {
	renderWith := func(scn Scenario) string {
		res, err := sweep(Study{
			Apps:       []string{"TVAnts"},
			Seeds:      []int64{5},
			Duration:   Duration(20 * time.Second),
			PeerFactor: 0.05,
			Scenarios:  []Scenario{scn},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		series := res.SeriesTable()
		if series == nil {
			t.Fatal("scenario sweep produced no series table")
		}
		return render(t, series, res.TableII())
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
	a, b := renderWith(Scenario{Name: "flashcrowd"}), renderWith(Scenario{Spec: decoded})
	if a != b {
		t.Errorf("file-decoded spec diverged from the named scenario:\n--- named ---\n%s\n--- file ---\n%s", a, b)
	}
	if !strings.Contains(b, "flashcrowd") {
		t.Errorf("file-spec series table not labeled with the spec name:\n%s", b)
	}
}

func TestSweepInvalidScenarioSpecFails(t *testing.T) {
	_, err := sweep(Study{
		Apps:      []string{"TVAnts"},
		Trials:    1,
		Scenarios: []Scenario{{Spec: &scenario.Spec{}}}, // nameless: invalid
	}, 0)
	if err == nil {
		t.Fatal("invalid scenario spec accepted")
	}
}

// TestOneSeedTablesMatchSingleRunTables pins the one definition of each
// paper table: a one-seed study prints, in front of every ±, the value the
// single-run renderer prints from the full results, and dashes where it
// does. Each cell keeps its run's own Summary, and that Summary is exactly
// what Summarize derives from the full result.
func TestOneSeedTablesMatchSingleRunTables(t *testing.T) {
	res, err := Run(context.Background(), &Study{
		Name:       "one-seed",
		Apps:       []string{"TVAnts", "SopCast"},
		Seeds:      []int64{3},
		Duration:   Duration(20 * time.Second),
		PeerFactor: 0.05,
	}, WithFullResults())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*report.Table{
		{res.TableII(), experiment.TableII(res.Full)},
		{res.TableIII(), experiment.TableIII(res.Full)},
		{res.TableIV(), experiment.TableIV(res.Full)},
	} {
		rep, one := pair[0], pair[1]
		if len(rep.Rows) != len(one.Rows) {
			t.Fatalf("%s: %d rows, single-run %d", rep.Title, len(rep.Rows), len(one.Rows))
		}
		for i, row := range rep.Rows {
			for j, cell := range row {
				if mean, _, _ := strings.Cut(cell, "±"); mean != one.Rows[i][j] {
					t.Errorf("%s row %d column %d: replicated %q, single-run %q", rep.Title, i, j, cell, one.Rows[i][j])
				}
			}
		}
	}
	encode := func(s experiment.Summary) string {
		var b strings.Builder
		if err := EncodeSummary(&b, &s); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for i, c := range res.Cells {
		r := res.Full[i]
		if encode(c.Summary) != encode(r.Summary) {
			t.Errorf("cell %d keeps a summary other than its run's", i)
		}
		if encode(r.Summary) != encode(experiment.Summarize(r)) {
			t.Errorf("cell %d: the run's summary is not what Summarize derives", i)
		}
	}
}
