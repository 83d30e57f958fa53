package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"napawine/internal/plot"
	"napawine/internal/scenario"
)

// scenarioConfig is a fast scenario run: a small swarm over a short
// horizon, enough for the crowd to arrive and the sampler to fill buckets.
func scenarioConfig(name string, seed int64) Config {
	cfg := Default("TVAnts")
	cfg.Seed = seed
	cfg.World.Seed = seed
	cfg.World.Peers = 60
	cfg.World.ProbeASBackground = 2
	cfg.Duration = 60 * time.Second
	spec, err := scenario.ByName(name)
	if err != nil {
		panic(err)
	}
	cfg.Scenario = spec
	return cfg
}

func TestScenarioRunProducesSeries(t *testing.T) {
	r, err := Run(scenarioConfig("flashcrowd", 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "flashcrowd" {
		t.Errorf("Scenario = %q, want flashcrowd", r.Scenario)
	}
	if len(r.Series) != scenario.DefaultBuckets {
		t.Fatalf("series has %d buckets, want %d", len(r.Series), scenario.DefaultBuckets)
	}
	// The flash crowd arrives in [25%, 35%] of the run: the online
	// population after the burst must exceed the population before it.
	pre, post := r.Series[2], r.Series[len(r.Series)-4]
	if post.Online <= pre.Online {
		t.Errorf("flash crowd invisible in series: online %d at %v vs %d at %v",
			pre.Online, pre.T, post.Online, post.T)
	}
	for i, s := range r.Series {
		if s.T <= 0 || s.T > r.Cfg.Duration {
			t.Errorf("bucket %d at %v outside the run", i, s.T)
		}
		if s.Continuity < 0 || s.Continuity > 1 {
			t.Errorf("bucket %d continuity %v outside [0,1]", i, s.Continuity)
		}
		if s.IntraASValid && (s.IntraASPct < 0 || s.IntraASPct > 100) {
			t.Errorf("bucket %d intra-AS %v%% outside [0,100]", i, s.IntraASPct)
		}
	}
	// Summaries carry the series for sweeps, bounded by the bucket cap.
	sum := r.Summary
	if sum.Scenario != "flashcrowd" || len(sum.Series) != len(r.Series) {
		t.Errorf("summary lost the series: scenario %q, %d buckets", sum.Scenario, len(sum.Series))
	}
	if len(sum.Series) > scenario.MaxBuckets {
		t.Errorf("summary series exceeds the memory bound: %d buckets", len(sum.Series))
	}
}

func TestRunWithoutScenarioHasNoSeries(t *testing.T) {
	r := runSmall(t, "TVAnts")
	if r.Scenario != "" || len(r.Series) != 0 {
		t.Errorf("plain run grew a series: scenario %q, %d buckets", r.Scenario, len(r.Series))
	}
}

func TestScenarioSeriesDeterministic(t *testing.T) {
	render := func() string {
		r, err := Run(scenarioConfig("outage", 9))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := SeriesTable([]*Result{r}).Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("same scenario+seed produced different series tables:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	// The outage window [35%, 60%] must be visible as DOWN tracker marks.
	if !strings.Contains(a, "DOWN") {
		t.Errorf("outage scenario series never shows the tracker down:\n%s", a)
	}
	if !strings.Contains(a, "up") {
		t.Errorf("outage scenario series never shows the tracker up:\n%s", a)
	}
}

func TestSeriesTableShape(t *testing.T) {
	r, err := Run(scenarioConfig("steady", 3))
	if err != nil {
		t.Fatal(err)
	}
	tab := SeriesTable([]*Result{r})
	if len(tab.Rows) != len(r.Series) {
		t.Errorf("table has %d rows for %d buckets", len(tab.Rows), len(r.Series))
	}
	if !strings.Contains(tab.Title, "steady") {
		t.Errorf("table title %q does not name the scenario", tab.Title)
	}
}

// TestSeriesTableSkipsBucketsARunDidNotReach: a run whose series stops
// short of a bucket has no row there, and is unmeasured there; the longest
// series sets the buckets, and a run without a series has no line in a plot.
func TestSeriesTableSkipsBucketsARunDidNotReach(t *testing.T) {
	long := &Result{Summary: Summary{App: "PPLive", Scenario: "x", Series: []SeriesSample{{T: time.Second}, {T: 2 * time.Second}}}}
	short := &Result{Summary: Summary{App: "TVAnts", Scenario: "x", Series: []SeriesSample{{T: time.Second}}}}
	none := &Result{Summary: Summary{App: "SopCast"}}
	results := []*Result{long, short, none}
	tab := SeriesTable(results)
	var got []string
	for _, row := range tab.Rows {
		got = append(got, row[0]+" "+row[1])
	}
	if want := []string{"1s PPLive", "1s TVAnts", "2s PPLive"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %q, want %q", got, want)
	}
	if _, ok := SeriesMetrics[0].At(1).Get(short.Summary); ok {
		t.Error("bucket 1 of a one-bucket series measured")
	}
	for _, art := range SeriesPlots(results) {
		var names []string
		for _, s := range art.Chart.(*plot.Line).Series {
			names = append(names, s.Name)
		}
		if want := []string{"PPLive", "TVAnts"}; !reflect.DeepEqual(names, want) {
			t.Errorf("%s: lines %q, want %q", art.Name, names, want)
		}
	}
}

// TestPerASIntraShareBreaksWhereNoVideoMoved: a per-AS bucket that received
// no video plots a gap, not 0.
func TestPerASIntraShareBreaksWhereNoVideoMoved(t *testing.T) {
	r := &Result{Summary: Summary{App: "TVAnts", Scenario: "x", Series: []SeriesSample{
		{T: time.Second, PerAS: []ASSample{{AS: 7, IntraPct: 40, IntraValid: true}}},
		{T: 2 * time.Second, PerAS: []ASSample{{AS: 7}}},
	}}}
	for _, art := range SeriesPlots([]*Result{r}) {
		if art.Name != "per-as-intra-as-tvants" {
			continue
		}
		if y := art.Chart.(*plot.Line).Series[0].Y; y[0] != 40 || !math.IsNaN(y[1]) {
			t.Errorf("AS 7 intra-AS share %v, want [40 NaN]", y)
		}
		return
	}
	t.Error("no per-AS intra-AS plot")
}

// TestSeriesBucketsAtNanosecondHorizons: a horizon shorter than the bucket
// count is one bucket at the horizon, and a horizon that the bucket width
// does not divide stops at the bucket count. No video moves in so short a
// run, so its source share and diffusion delay read 0.
func TestSeriesBucketsAtNanosecondHorizons(t *testing.T) {
	for _, tc := range []struct {
		horizon time.Duration
		want    []time.Duration
	}{
		{3, []time.Duration{3}},
		{10, []time.Duration{2, 4, 6, 8}},
	} {
		cfg := scenarioConfig("flashcrowd", 1)
		cfg.Duration = tc.horizon
		cfg.Scenario.Buckets = 4
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []time.Duration
		for _, s := range r.Series {
			got = append(got, s.T)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v horizon, 4 buckets: samples at %v, want %v", tc.horizon, got, tc.want)
		}
		if r.VideoBytes != 0 || r.SourceSharePct != 0 || r.DiffusionDelayS != 0 {
			t.Errorf("%v horizon: video %d B, source share %v%%, diffusion %v s; want all 0", tc.horizon, r.VideoBytes, r.SourceSharePct, r.DiffusionDelayS)
		}
	}
}

func TestSeriesTableNilWithoutScenario(t *testing.T) {
	r := runSmall(t, "TVAnts")
	if tab := SeriesTable([]*Result{r}); tab != nil {
		t.Errorf("scenario-less results produced a series table: %q", tab.Title)
	}
	if arts := SeriesPlots([]*Result{r}); arts != nil {
		t.Errorf("scenario-less results produced %d series plots", len(arts))
	}
}

// TestRunLeavesCallerSpecUnmodified is the spec-aliasing regression guard:
// Run clones the caller's scenario spec before validating or compiling it,
// so the original must come back bit-for-bit identical even when the run
// derives state (ExtraPeers, buckets) from it.
func TestRunLeavesCallerSpecUnmodified(t *testing.T) {
	cfg := scenarioConfig("flashcrowd", 6)
	want := cfg.Scenario.Clone()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Scenario, want) {
		t.Errorf("Run mutated the caller's scenario spec:\n before %+v\n after  %+v", want, cfg.Scenario)
	}
}

// TestScenarioRunFailover: the failover scenario runs end-to-end through
// the experiment layer and the promoted source keeps the stream alive.
func TestScenarioRunFailover(t *testing.T) {
	r, err := Run(scenarioConfig("failover", 8))
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanContinuity <= 0.3 {
		t.Errorf("post-failover continuity %.3f: the promoted source did not carry the stream", r.MeanContinuity)
	}
	if len(r.Series) == 0 {
		t.Error("failover run produced no series")
	}
}

// TestScenarioSeriesPerAS pins the per-AS breakdown contract: every bucket
// carries at most DefaultASSeriesK tracked ASes, ASN-ascending and identical
// across buckets; per-AS online counts partition within the swarm total;
// and the shares stay in range.
func TestScenarioSeriesPerAS(t *testing.T) {
	r, err := Run(scenarioConfig("flashcrowd", 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) == 0 {
		t.Fatal("no series")
	}
	first := r.Series[0].PerAS
	if len(first) == 0 || len(first) > DefaultASSeriesK {
		t.Fatalf("bucket 0 tracks %d ASes, want 1..%d", len(first), DefaultASSeriesK)
	}
	for b, s := range r.Series {
		if len(s.PerAS) != len(first) {
			t.Fatalf("bucket %d tracks %d ASes, bucket 0 tracked %d", b, len(s.PerAS), len(first))
		}
		asOnline := 0
		for i, a := range s.PerAS {
			if a.AS != first[i].AS {
				t.Errorf("bucket %d slot %d is AS %d, bucket 0 had AS %d — tracked set drifted", b, i, a.AS, first[i].AS)
			}
			if i > 0 && a.AS <= s.PerAS[i-1].AS {
				t.Errorf("bucket %d per-AS not ASN-ascending: %d after %d", b, a.AS, s.PerAS[i-1].AS)
			}
			if a.Online < 0 || a.Online > s.Online {
				t.Errorf("bucket %d AS %d online %d outside [0,%d]", b, a.AS, a.Online, s.Online)
			}
			if a.Continuity < 0 || a.Continuity > 1 {
				t.Errorf("bucket %d AS %d continuity %v outside [0,1]", b, a.AS, a.Continuity)
			}
			if a.IntraValid && (a.IntraPct < 0 || a.IntraPct > 100) {
				t.Errorf("bucket %d AS %d intra %v%% outside [0,100]", b, a.AS, a.IntraPct)
			}
			asOnline += a.Online
		}
		if asOnline > s.Online {
			t.Errorf("bucket %d tracked-AS online sum %d exceeds swarm online %d", b, asOnline, s.Online)
		}
	}
}

// TestScenarioRunZapping: the zapping scenario dips the online population
// inside its window and refills it afterwards.
func TestScenarioRunZapping(t *testing.T) {
	r, err := Run(scenarioConfig("zapping", 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != scenario.DefaultBuckets {
		t.Fatalf("series has %d buckets, want %d", len(r.Series), scenario.DefaultBuckets)
	}
	// Zap window [50%, 60%]: bucket 6 (ends at 55%) sits inside the dip;
	// the final bucket must have recovered above it.
	dip, end := r.Series[6], r.Series[len(r.Series)-1]
	if end.Online <= dip.Online {
		t.Errorf("zapping dip did not recover: online %d at %v vs %d at %v",
			dip.Online, dip.T, end.Online, end.T)
	}
}
