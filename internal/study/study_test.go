package study

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/policy"
	"napawine/internal/scenario"
)

// TestStudyIsData: a Study value is what its file says. No field anywhere in
// its type tree is code (a func or chan) or left out of the codec (json:"-"),
// so every study encodes, digests and distributes.
func TestStudyIsData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path)
		case reflect.Map:
			walk(ty.Key(), path)
			walk(ty.Elem(), path)
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				if f.Tag.Get("json") == "-" {
					t.Errorf("%s.%s is left out of the codec", path, f.Name)
				}
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeFor[Study](), "Study")
	for _, ty := range []reflect.Type{reflect.TypeFor[Variant](), reflect.TypeFor[Scenario](), reflect.TypeFor[scenario.Spec]()} {
		if !seen[ty] {
			t.Errorf("the walk never reached %v", ty)
		}
	}
}

func TestStudyDefaults(t *testing.T) {
	st := &Study{Name: "d"}
	if got := st.AppList(); len(got) != 3 || got[0] != "PPLive" {
		t.Errorf("default apps = %v", got)
	}
	if got := st.StrategyList(); len(got) != 1 || got[0] != "" {
		t.Errorf("default strategies = %v", got)
	}
	if got := st.ScenarioList(); len(got) != 1 || got[0].Label() != "" {
		t.Errorf("default scenarios = %v", got)
	}
	if got := st.VariantList(); len(got) != 1 || got[0].Name != "" {
		t.Errorf("default variants = %v", got)
	}
	if got := st.SeedList(); len(got) != 1 || got[0] != 1 {
		t.Errorf("default seeds = %v", got)
	}
	gen := &Study{Name: "d", BaseSeed: 7, Trials: 3}
	if got := gen.SeedList(); len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Errorf("generated seeds = %v, want [7 8 9]", got)
	}
	listed := &Study{Name: "d", Seeds: []int64{42}}
	if got := listed.SeedList(); len(got) != 1 || got[0] != 42 {
		t.Errorf("explicit seeds = %v, want [42]", got)
	}
	if st.Runs() != 3 {
		t.Errorf("Runs = %d, want 3", st.Runs())
	}
	if err := st.Validate(); err != nil {
		t.Errorf("default study invalid: %v", err)
	}
}

func TestStudyRunsIsGridProduct(t *testing.T) {
	st := &Study{
		Name:       "grid",
		Apps:       []string{"TVAnts", "SopCast"},
		Strategies: []string{"urgent-random", "rarest"},
		Scenarios:  []Scenario{{}, {Name: "flashcrowd"}},
		Variants:   []Variant{{}, {Name: "blind", Blind: true}},
		Trials:     3,
	}
	if got := st.Runs(); got != 2*2*2*2*3 {
		t.Errorf("Runs = %d, want 48", got)
	}
	if err := st.Validate(); err != nil {
		t.Errorf("grid study invalid: %v", err)
	}
}

func TestStudyValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   Study
		want string
	}{
		{"no name", Study{}, "without a name"},
		{"bad app", Study{Name: "s", Apps: []string{"Joost"}}, "Joost"},
		{"dup app", Study{Name: "s", Apps: []string{"TVAnts", "TVAnts"}}, "duplicate app"},
		{"bad strategy", Study{Name: "s", Strategies: []string{"newest"}}, "newest"},
		{"dup strategy", Study{Name: "s", Strategies: []string{"rarest", "rarest"}}, "duplicate strategy"},
		// Two spellings of one strategy would run as two cells.
		{"rarest spelled twice", Study{Name: "s", Strategies: []string{"rarest", "hybrid:r=1"}},
			`duplicate strategy "hybrid:r=1" (the same as "rarest")`},
		{"default spelled twice", Study{Name: "s", Strategies: []string{"urgent-random", "hybrid:u=1"}},
			`duplicate strategy "hybrid:u=1" (the same as "urgent-random")`},
		{"hybrid spelled twice", Study{Name: "s", Strategies: []string{"hybrid:u=0.4", "hybrid:u=.4"}},
			`duplicate strategy "hybrid:u=.4" (the same as "hybrid:u=0.4")`},
		{"bad scenario", Study{Name: "s", Scenarios: []Scenario{{Name: "worldcup"}}}, "worldcup"},
		{"dup scenario", Study{Name: "s", Scenarios: []Scenario{{Name: "outage"}, {Name: "outage"}}}, "duplicate scenario"},
		{"dup variant", Study{Name: "s", Variants: []Variant{{}, {Blind: true}}}, "duplicate variant"},
		// Rendered-label collisions: an axis cell whose name collides with
		// a default cell's rendered coordinate would silently merge with it
		// in every pivot.
		{"variant named stock", Study{Name: "s", Variants: []Variant{{}, {Name: "stock", Blind: true}}}, "duplicate variant"},
		{"scenario named stationary", Study{Name: "s", Scenarios: []Scenario{
			{}, {Spec: &scenario.Spec{Name: "stationary"}}}}, "duplicate scenario"},
		{"dup seed", Study{Name: "s", Seeds: []int64{4, 4}}, "duplicate seed"},
		// Seed 0 keeps the calibrated default (seed 1), so listing both
		// would replicate one trial and call it two.
		{"seed 0 aliases 1", Study{Name: "s", Seeds: []int64{0, 1}}, "duplicate seed"},
		{"seeds and trials", Study{Name: "s", Seeds: []int64{4}, Trials: 5}, "mutually exclusive"},
		{"seeds and base seed", Study{Name: "s", Seeds: []int64{4}, BaseSeed: 9}, "mutually exclusive"},
		{"neg factor", Study{Name: "s", PeerFactor: -1}, "negative peer factor"},
		{"NaN factor", Study{Name: "s", PeerFactor: math.NaN()}, "peer factor NaN"},
		{"neg trials", Study{Name: "s", Trials: -2}, "negative trials"},
		{"neg peers", Study{Name: "s", Peers: -1}, "negative peers -1"},
		{"peers and factor", Study{Name: "s", Peers: 60, PeerFactor: 0.5}, "peers and peer_factor are mutually exclusive"},
		{"bad metric", Study{Name: "s", Metrics: []string{"vibes"}}, "vibes"},
		// A blind variant names the profile it builds.
		{"nameless blind variant", Study{Name: "s", Variants: []Variant{{Blind: true}}}, "study s: blind variant without a name"},
		// A variant's profile depends on Blind alone: two variants that
		// build one profile would run the same cells twice.
		{"stock under two names", Study{Name: "s", Variants: []Variant{{}, {Name: "x"}}},
			`duplicate variant "x" (the same profile as "stock")`},
		{"blind under two names", Study{Name: "s", Variants: []Variant{{Name: "a", Blind: true}, {Name: "b", Blind: true}}},
			`duplicate variant "b" (the same profile as "a")`},
		{"peers past the id limit", Study{Name: "s", Apps: []string{"TVAnts"}, Peers: 1 << 24},
			"TVAnts @stationary: 16777309 nodes need peer ids up to 16777308, past the limit of 16777215"},
		// 1 400 PPLive peers × 12 000 is past the limit; 240 TVAnts peers
		// × 12 000 is not, so only PPLive fails.
		{"factor past the id limit", Study{Name: "s", PeerFactor: 12_000},
			"PPLive @stationary: 16800093 nodes need peer ids up to 16800092, past the limit of 16777215"},
		// Every cell also builds 93 nodes beside its background: the source,
		// 44 probes and 8 peers in each of the 6 probe ASes.
		{"probe side past the id limit", Study{Name: "s", Apps: []string{"TVAnts"}, Peers: 1<<24 - 44},
			"TVAnts @stationary: 16777265 nodes need peer ids up to 16777264, past the limit of 16777215"},
		{"one node past the id limit", Study{Name: "s", Apps: []string{"TVAnts"}, Peers: 1<<24 - 92},
			"TVAnts @stationary: 16777217 nodes need peer ids up to 16777216, past the limit of 16777215"},
		// flashcrowd's deferred pool doubles the background.
		{"deferred pool past the id limit", Study{Name: "s", Apps: []string{"TVAnts"}, Peers: 9_000_000,
			Scenarios: []Scenario{{Name: "flashcrowd"}}},
			"TVAnts @flashcrowd: 18000093 nodes need peer ids up to 18000092, past the limit of 16777215"},
		// One chunk a second: 600 000 h reaches chunk 2.16·10⁹, past 2³¹ − 1.
		{"duration past the chunk limit", Study{Name: "s", Apps: []string{"TVAnts"}, Duration: Duration(600_000 * time.Hour)},
			"TVAnts @stationary: duration 600000h0m0s reaches chunk 2160000000, past the limit of 2147483647"},
	} {
		err := tc.st.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := (&Study{}).RunInfos(); err == nil {
		t.Error("RunInfos of an invalid study succeeded")
	}
}

// TestValidateSizesPerApp: the population limit applies to each app's own
// resolved population, and the limit itself is allowed: 2²⁴ − 93 background
// peers and the 93 nodes beside them take exactly the 2²⁴ peer ids.
func TestValidateSizesPerApp(t *testing.T) {
	for _, st := range []*Study{
		{Name: "s", Apps: []string{"TVAnts", "SopCast"}, PeerFactor: 12_000},
		{Name: "s", Peers: 1<<24 - 93},
	} {
		if err := st.Validate(); err != nil {
			t.Errorf("%+v: %v", st, err)
		}
	}
}

// TestRunRejectsAnUnrunnableProfileBeforeAnyCell: a nameless blind variant,
// whose profile cannot run, fails the study before any cell starts rather
// than panicking inside the first cell's world.
func TestRunRejectsAnUnrunnableProfileBeforeAnyCell(t *testing.T) {
	st := miniStudy()
	st.Variants = []Variant{{Blind: true}}
	obs := &countingObserver{}
	_, err := Run(context.Background(), st, WithWorkers(1), WithObserver(obs))
	if err == nil || !strings.Contains(err.Error(), "blind variant without a name") {
		t.Fatalf("Run = %v, want the nameless-blind error", err)
	}
	if obs.starts != 0 {
		t.Errorf("%d cells started", obs.starts)
	}
}

// TestGridOrder pins cell nesting: app outermost, then strategy, scenario,
// variant, seed — the order the sweep adapter's regrouping relies on.
func TestGridOrder(t *testing.T) {
	st := &Study{
		Name:       "order",
		Apps:       []string{"TVAnts"},
		Strategies: []string{"urgent-random", "rarest"},
		Variants:   []Variant{{}, {Name: "blind", Blind: true}},
		Seeds:      []int64{7, 8},
	}
	g, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cells := g.cells
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	want := []struct {
		strat, vr string
		seed      int64
	}{
		{"urgent-random", "", 7}, {"urgent-random", "", 8},
		{"urgent-random", "blind", 7}, {"urgent-random", "blind", 8},
		{"rarest", "", 7}, {"rarest", "", 8},
		{"rarest", "blind", 7}, {"rarest", "blind", 8},
	}
	for i, w := range want {
		c := cells[i]
		if c.Strategy != w.strat || c.Variant != w.vr || c.Seed != w.seed || c.Index != i {
			t.Errorf("cell %d = (%s, %s, %d, idx %d), want (%s, %s, %d, idx %d)",
				i, c.Strategy, c.Variant, c.Seed, c.Index, w.strat, w.vr, w.seed, i)
		}
	}
}

// TestCellConfig pins the per-cell experiment configuration to the battery
// conventions: seed 0 keeps the calibrated default, durations and scale
// apply, a blind variant derives a profile with uniform discovery, and the
// strategy axis sets the profile's chunk strategy.
func TestCellConfig(t *testing.T) {
	st := &Study{Name: "cfg", Duration: Duration(42 * time.Second), PeerFactor: 0.5}
	c := cell{Point: Point{App: "TVAnts", Strategy: "rarest", Seed: 9},
		variant: Variant{Name: "v", Blind: true}}
	cfg, err := c.config(st)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.World.Seed != 9 {
		t.Errorf("seed not applied: %d/%d", cfg.Seed, cfg.World.Seed)
	}
	if cfg.Duration != 42*time.Second {
		t.Errorf("duration = %v", cfg.Duration)
	}
	rarest := policy.Hybrid{RarestWeight: 1}
	if got := cfg.Profile.ChunkStrategy; got != rarest {
		t.Errorf("strategy = %+v, want rarest's member %+v", got, rarest)
	}
	if cfg.World.Peers != 120 { // 240 * 0.5
		t.Errorf("peers = %d, want 120", cfg.World.Peers)
	}
	if cfg.Profile == nil || cfg.Profile.Name != "v" {
		t.Errorf("variant profile not derived: %+v", cfg.Profile)
	}
	if cfg.Profile != nil && cfg.Profile.DiscoveryWeight != (policy.Bias{}) {
		t.Errorf("blind variant discovers with %+v, want uniform", cfg.Profile.DiscoveryWeight)
	}
	// With no variant, the strategy lands on a fresh stock profile.
	if cfg, err = (cell{Point: Point{App: "TVAnts", Strategy: "rarest"}}).config(st); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Profile.ChunkStrategy; got != rarest || cfg.Profile.Name != "TVAnts" {
		t.Errorf("profile %s with strategy %+v, want TVAnts with rarest", cfg.Profile.Name, got)
	}

	zero := cell{Point: Point{App: "TVAnts"}}
	cfg, err = zero.config(&Study{Name: "z"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 || cfg.Profile != nil {
		t.Errorf("zero cell should keep defaults: seed %d, profile %v", cfg.Seed, cfg.Profile)
	}
}

func TestCoordLabels(t *testing.T) {
	c := Point{App: "TVAnts", Seed: 3}
	for ax, want := range map[Axis]string{
		AxisApp: "TVAnts", AxisStrategy: "default", AxisScenario: "stationary",
		AxisVariant: "stock", AxisSeed: "3",
	} {
		if got := c.Coord(ax); got != want {
			t.Errorf("Coord(%s) = %q, want %q", ax, got, want)
		}
	}
	// Progress lines name every non-default coordinate; depth 1 is a bound.
	c = Point{App: "TVAnts", Variant: "blind", Strategy: "rarest", Scenario: "flashcrowd", QueueDepth: 1, Seed: 3}
	if got, want := c.Label(), "TVAnts/blind rarest @flashcrowd q=1 seed 3"; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
}

func TestDurationText(t *testing.T) {
	var d Duration
	if err := d.UnmarshalText([]byte("90s")); err != nil || time.Duration(d) != 90*time.Second {
		t.Errorf("UnmarshalText(90s) = %v, %v", d, err)
	}
	if err := d.UnmarshalText([]byte("not-a-duration")); err == nil {
		t.Error("garbage duration accepted")
	}
	if err := d.UnmarshalText([]byte("-5s")); err == nil {
		t.Error("negative duration accepted")
	}
	b, err := Duration(2 * time.Minute).MarshalText()
	if err != nil || string(b) != "2m0s" {
		t.Errorf("MarshalText = %q, %v", b, err)
	}
}

func TestRegistryStudiesValid(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty study registry")
	}
	for _, name := range names {
		st, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Validate(); err != nil {
			t.Errorf("registered study %s invalid: %v", name, err)
		}
		if st.Description == "" {
			t.Errorf("registered study %s has no description", name)
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown study error = %v", err)
	}
	// ByName hands out fresh copies: mutating one must not corrupt the next.
	a, _ := ByName(names[0])
	a.Trials = 99
	b, _ := ByName(names[0])
	if b.Trials == 99 {
		t.Error("ByName returned a shared value")
	}
}

func TestMetricRegistry(t *testing.T) {
	for _, m := range Metrics() {
		if m.Key == "" || m.Label == "" || m.Get == nil {
			t.Errorf("malformed metric %+v", m)
		}
		got, err := MetricByKey(m.Key)
		if err != nil || got.Label != m.Label {
			t.Errorf("MetricByKey(%s) = %+v, %v", m.Key, got, err)
		}
	}
	if _, err := MetricByKey("vibes"); err == nil || !strings.Contains(err.Error(), "vibes") {
		t.Errorf("unknown metric error = %v", err)
	}
	if got := len(DefaultMetrics()); got != 4 {
		t.Errorf("DefaultMetrics = %d metrics, want 4", got)
	}
}

// TestMetricsReadTheirFields: every registered metric reads the Summary field
// its key names, from a Summary whose fields all differ, and is measurable
// by its own rule: the source share once video moved, the diffusion delay
// once a chunk was delivered, the loss once anything was offered, the AS
// awareness when its Table IV cell is valid, every other metric always.
func TestMetricsReadTheirFields(t *testing.T) {
	as := experiment.SummaryCell{Property: "AS"}
	as.Vals[0], as.Valid[0] = 13, true
	full := experiment.Summary{
		MeanContinuity: 1, SourceKbps: 2, SourceSharePct: 3, VideoBytes: 4,
		DiffusionDelayS: 5, DiffusionChunks: 6, RxKbpsMean: 7, HopMedian: 8,
		Events: 9, LossPct: 10, Drops: 11, Retransmits: 12, Backoffs: 14,
		ChunksServed: 15, TableIV: []experiment.SummaryCell{as},
	}
	want := map[string]float64{
		"continuity": 1, "source-kbps": 2, "source-share": 3, "diffusion-delay": 5,
		"rx-kbps": 7, "hop-median": 8, "as-awareness": 13, "events": 9,
		"loss-pct": 10, "drops": 11, "retransmits": 12, "backoffs": 14,
	}
	// Measurable in a zero Summary: every metric but these four.
	unmeasured := map[string]bool{"source-share": true, "diffusion-delay": true, "as-awareness": true, "loss-pct": true}
	if len(Metrics()) != len(want) {
		t.Fatalf("%d metrics registered, %d checked", len(Metrics()), len(want))
	}
	for _, m := range Metrics() {
		if v, ok := m.Get(full); v != want[m.Key] || !ok {
			t.Errorf("%s = %v, %v; want %v, true", m.Key, v, ok, want[m.Key])
		}
		if _, ok := m.Get(experiment.Summary{}); ok == unmeasured[m.Key] {
			t.Errorf("%s of a zero summary measurable = %v", m.Key, ok)
		}
	}
	// Loss is measurable once anything was offered, served or dropped.
	loss, _ := MetricByKey("loss-pct")
	for _, s := range []experiment.Summary{{ChunksServed: 1}, {Drops: 1}} {
		if _, ok := loss.Get(s); !ok {
			t.Errorf("loss-pct of %+v not measurable", s)
		}
	}
	// A comparison table prints each metric under its label, to its decimals.
	var keys []string
	for _, m := range Metrics() {
		keys = append(keys, m.Key)
	}
	full.App = "TVAnts"
	r := &Result{Study: &Study{Name: "m", Metrics: keys}, Seeds: []int64{1}, Cells: []Cell{{Point: Point{App: "TVAnts", Seed: 1}, Done: true, Summary: full}}}
	lines := strings.Split(render(t, r.ComparisonTable()), "\n")
	for i, want := range map[int]string{
		1: "app Continuity Source kbps Source share% Diffusion s RX kbps Hop median AS B'D% Events Loss% Drops Retx Backoffs",
		3: "TVAnts 1.000±0.000 2±0 3.0±0.0 5.00±0.00 7±0 8.0±0.0 13.0±0.0 9±0 10.00±0.00 11±0 12±0 14±0",
	} {
		if got := strings.Join(strings.Fields(lines[i]), " "); got != want {
			t.Errorf("comparison table line %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestStudyCongestionAxis(t *testing.T) {
	st := &Study{
		Name:        "cong",
		Apps:        []string{"TVAnts"},
		QueueDepths: []int{0, 2},
		Seeds:       []int64{7},
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := st.Runs(); got != 2 {
		t.Errorf("Runs = %d, want 2", got)
	}
	g, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cells := g.cells
	if len(cells) != 2 || cells[0].QueueDepth != 0 || cells[1].QueueDepth != 2 {
		t.Fatalf("congestion grid = %+v", cells)
	}
	off, err := cells[0].config(st)
	if err != nil {
		t.Fatal(err)
	}
	if off.Congestion.Enabled() {
		t.Errorf("off cell congestion = %+v", off.Congestion)
	}
	on, err := cells[1].config(st)
	if err != nil {
		t.Fatal(err)
	}
	if on.Congestion.QueueDepth != 2 {
		t.Errorf("bounded cell congestion = %+v", on.Congestion)
	}

	c := Point{App: "TVAnts", Seed: 7}
	if got := c.Coord(AxisCongestion); got != "off" {
		t.Errorf("Coord(congestion) = %q, want off", got)
	}
	c.QueueDepth = 2
	if got := c.Coord(AxisCongestion); got != "q=2" {
		t.Errorf("Coord(congestion) = %q, want q=2", got)
	}
}

func TestStudyCongestionValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   Study
		want string
	}{
		{"negative level", Study{Name: "s", QueueDepths: []int{0, -2}}, "queue depth"},
		{"dup level", Study{Name: "s", QueueDepths: []int{2, 2}}, "duplicate queue depth"},
	} {
		err := tc.st.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSeeds(t *testing.T) {
	s := seeds(100, 3)
	if len(s) != 3 || s[0] != 100 || s[2] != 102 {
		t.Errorf("seeds = %v", s)
	}
	if len(seeds(1, 0)) != 0 {
		t.Error("zero seeds should be empty")
	}
}

// TestSeedsNegativeCount is the regression guard for the make([]int64, n)
// panic: a computed trial count that goes negative must degrade to an empty
// seed list, not crash the battery.
func TestSeedsNegativeCount(t *testing.T) {
	if s := seeds(7, -1); len(s) != 0 {
		t.Errorf("seeds(7, -1) = %v, want empty", s)
	}
	if s := seeds(7, -100); len(s) != 0 {
		t.Errorf("seeds(7, -100) = %v, want empty", s)
	}
}
