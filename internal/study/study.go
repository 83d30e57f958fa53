// Package study is the declarative execution layer above the experiment
// engine: a Study names a grid — applications × chunk-scheduling strategies
// × workload scenarios × profile variants × seeds — and Run replays one
// experiment per grid cell, reducing each to a bounded summary and pivoting
// the lot into comparison tables.
//
// The paper's deliverable is comparative (the same swarm read side-by-side
// across applications and conditions, Tables II–IV), and simulation
// harnesses in the same literature (PSim/SSSim, Gallo et al.) treat an
// experiment campaign as a first-class declarative object for exactly that
// reason. A Study is that object here: strict JSON codec (mirroring the
// scenario codec — unknown fields are loud errors, registered studies
// round-trip), context cancellation, an Observer for progress and
// per-bucket time-series streaming, and axis pivots over the results. It is
// the one run description above the engine: the paper's single battery is a
// one-seed study (napawine.RunAll keeps its full results), a replicated run
// is the same study with a seed axis (Result.TableII and its siblings in
// replicated.go render its mean ± stderr tables), and cmd/napawine compiles
// every flag set into one.
//
// A grid cell is spelled once: Point carries its index and its value along
// every axis, and RunInfo, Cell and the resolved cell all embed it. A Study
// is resolved into a Grid once per executor (Run, a fleet coordinator, a
// fleet worker), and every executor runs and assembles cells through that
// Grid. Adding an axis touches Study (field, list method, Validate, Runs),
// Axis, Resolve, cell.config, Point (field, Coord, Label), cellKeyDoc (the
// spool key's wire format) and dash.runView — and nothing else that
// computes; the stderr banner in cmd/napawine counts the axes for display.
//
// Run and Grid.RunCell (a fleet worker's entry) run a cell through one
// runner, which turns a panic into the cell's error; that error is labelled
// with its cell once, where the study error is formed (Run, or the fleet
// coordinator), so a failing study reads the same wherever it ran.
package study

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"napawine/internal/access"
	"napawine/internal/apps"
	"napawine/internal/experiment"
	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/scenario"
)

// Duration is a time.Duration that travels through the JSON codec as a
// human-readable string ("5m", "90s"), never as raw nanoseconds.
type Duration time.Duration

// MarshalText encodes the duration in time.Duration notation.
func (d Duration) MarshalText() ([]byte, error) {
	return []byte(time.Duration(d).String()), nil
}

// UnmarshalText decodes time.Duration notation; a bare number is an error.
func (d *Duration) UnmarshalText(b []byte) error {
	parsed, err := time.ParseDuration(string(b))
	if err != nil {
		return fmt.Errorf("study: bad duration %q (want e.g. \"5m\", \"90s\")", b)
	}
	if parsed < 0 {
		return fmt.Errorf("study: negative duration %q", b)
	}
	*d = Duration(parsed)
	return nil
}

// Scenario is one cell of the scenario axis: a registered scenario by name,
// an inline workload timeline, or the zero value for the stationary
// condition (no scenario, no time series). In a JSON study the axis entry
// is either a bare name string ("flashcrowd") or an object carrying an
// inline spec ({"spec": {...}}); see the codec.
type Scenario struct {
	// Name selects a registered scenario ("" = stationary).
	Name string
	// Spec, when non-nil, is the timeline itself (e.g. a file-authored
	// spec) and takes precedence over Name.
	Spec *scenario.Spec
}

// Label names the cell for tables and progress lines.
func (s Scenario) Label() string {
	if s.Spec != nil {
		return s.Spec.Name
	}
	return s.Name
}

// resolve returns the spec this cell runs (nil = stationary), validating it.
func (s Scenario) resolve() (*scenario.Spec, error) {
	if s.Spec != nil {
		if err := s.Spec.Validate(); err != nil {
			return nil, err
		}
		return s.Spec, nil
	}
	if s.Name == "" {
		return nil, nil
	}
	return scenario.ByName(s.Name)
}

// Variant is one cell of the profile-variant axis. The zero Variant is the
// stock profile.
type Variant struct {
	// Name suffixes the application label in tables ("TVAnts/blind").
	Name string `json:"name,omitempty"`
	// Blind replaces the profile's discovery weight with the uniform
	// (location- and bandwidth-blind) weight — the paper's classic
	// ablation, and the variant axis's one knob.
	Blind bool `json:"blind,omitempty"`
}

// Study is a declarative experiment grid. Empty axes select defaults: the
// paper's three applications, the profile's own strategy, the stationary
// condition, the stock profile, one seed. Every listed axis value and each
// app's population are validated up front — a typo'd strategy fails before
// any CPU burns.
type Study struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Apps lists the applications (empty = the paper's three).
	Apps []string `json:"apps,omitempty"`
	// Strategies lists chunk-scheduling strategies by registered name;
	// "" means each profile's own. Empty = [""].
	Strategies []string `json:"strategies,omitempty"`
	// Scenarios lists workload-timeline cells. Empty = the stationary
	// condition.
	Scenarios []Scenario `json:"scenarios,omitempty"`
	// Variants lists profile-variant cells. Empty = the stock profile.
	Variants []Variant `json:"variants,omitempty"`

	// Seeds lists the trial seeds; empty selects Trials sequential seeds
	// starting at BaseSeed (or 1 when BaseSeed is 0). A 0 seed keeps the
	// application's calibrated default.
	Seeds    []int64 `json:"seeds,omitempty"`
	BaseSeed int64   `json:"base_seed,omitempty"`
	Trials   int     `json:"trials,omitempty"`

	// Duration is the virtual run length per cell (0 = per-app default).
	Duration Duration `json:"duration,omitempty"`
	// PeerFactor scales each application's default background population
	// (0 = 1.0, floor of 50 peers; see experiment.Config.ScalePeers).
	PeerFactor float64 `json:"peer_factor,omitempty"`
	// Peers pins the background population to an absolute count instead
	// of scaling the per-app default; 0 leaves the default (or the
	// PeerFactor scaling). Setting both is rejected — two sizings for one
	// world would silently run whichever won.
	Peers int `json:"peers,omitempty"`
	// QueueDepths lists the congestion axis: uplink queue depths to cross
	// with the other axes, 0 meaning the unbounded (congestion-off)
	// default. Empty = [0].
	QueueDepths []int `json:"queue_depths,omitempty"`

	// Metrics names the comparison table's columns by registered metric
	// key (empty = the continuity / source load / diffusion delay
	// default). See study.Metrics for the registry.
	Metrics []string `json:"metrics,omitempty"`
}

// AppList resolves the application axis.
func (st *Study) AppList() []string {
	if len(st.Apps) > 0 {
		return st.Apps
	}
	return []string{"PPLive", "SopCast", "TVAnts"}
}

// StrategyList resolves the strategy axis.
func (st *Study) StrategyList() []string {
	if len(st.Strategies) > 0 {
		return st.Strategies
	}
	return []string{""}
}

// ScenarioList resolves the scenario axis.
func (st *Study) ScenarioList() []Scenario {
	if len(st.Scenarios) > 0 {
		return st.Scenarios
	}
	return []Scenario{{}}
}

// VariantList resolves the variant axis.
func (st *Study) VariantList() []Variant {
	if len(st.Variants) > 0 {
		return st.Variants
	}
	return []Variant{{}}
}

// QueueDepthList resolves the congestion axis.
func (st *Study) QueueDepthList() []int {
	if len(st.QueueDepths) > 0 {
		return st.QueueDepths
	}
	return []int{0}
}

// SeedList resolves the seed axis.
func (st *Study) SeedList() []int64 {
	if len(st.Seeds) > 0 {
		return st.Seeds
	}
	base := st.BaseSeed
	if base == 0 {
		base = 1
	}
	n := st.Trials
	if n <= 0 {
		n = 1
	}
	return seeds(base, n)
}

// seeds builds n sequential seeds starting at base — the conventional
// input for multi-trial sweeps. A non-positive n yields an empty list
// rather than a panic, so a computed trial count of -1 degrades into "no
// trials", a loud empty table, not a crash.
func seeds(base int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Runs reports the grid size: one experiment per cell.
func (st *Study) Runs() int {
	return len(st.AppList()) * len(st.StrategyList()) * len(st.ScenarioList()) *
		len(st.VariantList()) * len(st.QueueDepthList()) * len(st.SeedList())
}

// Validate checks every axis value against its registry and rejects
// duplicate cells; it is the same fail-fast contract the scenario codec
// gives file-authored timelines.
func (st *Study) Validate() error {
	_, err := st.validate()
	return err
}

// validate is Validate returning the scenario specs it resolved, in
// ScenarioList order.
func (st *Study) validate() ([]*scenario.Spec, error) {
	var specs []*scenario.Spec
	if st.Name == "" {
		return nil, fmt.Errorf("study: study without a name")
	}
	if st.PeerFactor < 0 || math.IsNaN(st.PeerFactor) {
		return nil, fmt.Errorf("study %s: negative peer factor %v", st.Name, st.PeerFactor)
	}
	if st.Peers < 0 {
		return nil, fmt.Errorf("study %s: negative peers %d", st.Name, st.Peers)
	}
	if st.Peers > 0 && st.PeerFactor > 0 {
		return nil, fmt.Errorf("study %s: peers and peer_factor are mutually exclusive", st.Name)
	}
	if st.Trials < 0 {
		return nil, fmt.Errorf("study %s: negative trials %d", st.Name, st.Trials)
	}
	seenDepth := map[int]bool{}
	for _, depth := range st.QueueDepthList() {
		if seenDepth[depth] {
			return nil, fmt.Errorf("study %s: duplicate queue depth %d", st.Name, depth)
		}
		seenDepth[depth] = true
		if err := (access.CongestionModel{QueueDepth: depth}).Validate(); err != nil {
			return nil, fmt.Errorf("study %s: %w", st.Name, err)
		}
	}
	seenApp := map[string]bool{}
	for _, app := range st.AppList() {
		if _, err := apps.ByName(app); err != nil {
			return nil, fmt.Errorf("study %s: %w", st.Name, err)
		}
		if seenApp[app] {
			return nil, fmt.Errorf("study %s: duplicate app %q", st.Name, app)
		}
		seenApp[app] = true
	}
	// Strategies deduplicate on the resolved member's canonical name, so
	// two spellings of one strategy ("rarest" and "hybrid:r=1") cannot run
	// as two cells. "" keys itself: it is each profile's own strategy.
	seenStrat := map[string]string{}
	for _, strat := range st.StrategyList() {
		s, err := policy.StrategyByName(strat)
		if err != nil {
			return nil, fmt.Errorf("study %s: %w", st.Name, err)
		}
		key := strat
		if strat != "" {
			key = s.Name()
		}
		if prev, ok := seenStrat[key]; ok {
			return nil, fmt.Errorf("study %s: duplicate strategy %q (the same as %q)", st.Name, strat, prev)
		}
		seenStrat[key] = strat
	}
	// Scenario and variant cells deduplicate on their *rendered* labels,
	// not raw names: the zero scenario renders as "stationary" and the
	// zero variant as "stock", so an inline spec or variant literally
	// named that would silently merge with the default cell in every
	// pivot. Reject the collision loudly instead.
	seenScn := map[string]bool{}
	for i, scn := range st.ScenarioList() {
		spec, err := scn.resolve()
		if err != nil {
			return nil, fmt.Errorf("study %s: scenario %d: %w", st.Name, i, err)
		}
		label := scenarioLabel(scn.Label())
		if seenScn[label] {
			return nil, fmt.Errorf("study %s: duplicate scenario %q", st.Name, label)
		}
		seenScn[label] = true
		specs = append(specs, spec)
		// Every node a cell builds takes a peer id: the probe side and the
		// scenario's deferred pool count with the background. The duration
		// bounds the chunk ids it requests.
		for _, app := range st.AppList() {
			cfg, err := cell{Point: Point{App: app}, scn: spec}.config(st)
			if err != nil {
				return nil, fmt.Errorf("study %s: %w", st.Name, err)
			}
			if err := cfg.CheckLimits(); err != nil {
				return nil, fmt.Errorf("study %s: %s @%s: %w", st.Name, app, label, err)
			}
		}
	}
	// A variant's profile depends on Blind alone, so variants also
	// deduplicate on it: two that build one profile would run the same
	// cells twice under two labels. A blind variant names the profile it
	// builds, so it needs a name.
	seenVar := map[string]bool{}
	seenBlind := map[bool]string{}
	for _, vr := range st.VariantList() {
		label := variantLabel(vr.Name)
		if seenVar[label] {
			return nil, fmt.Errorf("study %s: duplicate variant %q", st.Name, label)
		}
		seenVar[label] = true
		if prev, ok := seenBlind[vr.Blind]; ok {
			return nil, fmt.Errorf("study %s: duplicate variant %q (the same profile as %q)", st.Name, label, prev)
		}
		seenBlind[vr.Blind] = label
		if vr.Blind && vr.Name == "" {
			return nil, fmt.Errorf("study %s: blind variant without a name", st.Name)
		}
	}
	// An explicit seed list and a generated one (Trials/BaseSeed) are two
	// different ways to author the same axis; a study carrying both would
	// silently run whichever SeedList prefers — the fail-loudly contract
	// says reject it instead.
	if len(st.Seeds) > 0 && (st.Trials != 0 || st.BaseSeed != 0) {
		return nil, fmt.Errorf("study %s: seeds and trials/base_seed are mutually exclusive", st.Name)
	}
	seenSeed := map[int64]bool{}
	for _, seed := range st.SeedList() {
		// Seed 0 keeps the calibrated default, which is seed 1 — so 0 and
		// 1 in one list would run the same trial twice and aggregate the
		// duplicate as an independent replication.
		key := seed
		if key == 0 {
			key = 1
		}
		if seenSeed[key] {
			return nil, fmt.Errorf("study %s: duplicate seed %d (0 selects the calibrated default, seed 1)", st.Name, seed)
		}
		seenSeed[key] = true
	}
	for _, key := range st.Metrics {
		if _, err := MetricByKey(key); err != nil {
			return nil, fmt.Errorf("study %s: %w", st.Name, err)
		}
	}
	return specs, nil
}

// Axis names one grid dimension for pivots and coordinate lookups.
type Axis string

// The six grid axes.
const (
	AxisApp        Axis = "app"
	AxisStrategy   Axis = "strategy"
	AxisScenario   Axis = "scenario"
	AxisVariant    Axis = "variant"
	AxisCongestion Axis = "congestion"
	AxisSeed       Axis = "seed"
)

// Axes lists the grid axes in nesting order (outermost first), which is
// also cell order in a Result.
func Axes() []Axis {
	return []Axis{AxisApp, AxisStrategy, AxisScenario, AxisVariant, AxisCongestion, AxisSeed}
}

// Point is one grid cell's coordinate: its position in grid order and its
// value along every axis. It is the one spelling of a cell — RunInfo (what
// observers see), Cell (what a Result holds) and the resolved cell (what
// runs) all embed it, so they can never disagree about which cell they mean.
type Point struct {
	// Index is the cell's 0-based position in grid order.
	Index int

	App        string
	Strategy   string // "" = the profile's own
	Scenario   string // "" = stationary
	Variant    string // "" = stock profile
	QueueDepth int    // 0 = unbounded uplink queues (congestion off)
	Seed       int64
}

// Coord reads the coordinate along one axis, as rendered in tables (seed as
// digits, empty coordinates as "default"/"stationary"/"stock", queue depth
// 0 as "off").
func (p Point) Coord(ax Axis) string {
	switch ax {
	case AxisApp:
		return p.App
	case AxisStrategy:
		return strategyLabel(p.Strategy)
	case AxisScenario:
		return scenarioLabel(p.Scenario)
	case AxisVariant:
		return variantLabel(p.Variant)
	case AxisCongestion:
		return congestionLabel(p.QueueDepth)
	case AxisSeed:
		return strconv.FormatInt(p.Seed, 10)
	}
	return ""
}

// Label renders the non-default coordinates for progress lines.
func (p Point) Label() string {
	s := p.App
	if p.Variant != "" {
		s += "/" + p.Variant
	}
	if p.Strategy != "" {
		s += " " + p.Strategy
	}
	if p.Scenario != "" {
		s += " @" + p.Scenario
	}
	if p.QueueDepth > 0 {
		s += " " + congestionLabel(p.QueueDepth)
	}
	return fmt.Sprintf("%s seed %d", s, p.Seed)
}

// cell is one resolved grid point, ready to configure an experiment.
type cell struct {
	Point

	scn     *scenario.Spec // resolved; nil = stationary
	variant Variant
}

// Grid is a study resolved once: validated, its scenario specs looked up,
// its cells expanded in grid order. Everything that executes or enumerates
// the grid — Run, a fleet coordinator, a fleet worker — resolves one Grid
// and works from it.
type Grid struct {
	st    *Study
	cells []cell
}

// Resolve validates the study and expands it into cells in axis nesting
// order: app (outermost) → strategy → scenario → variant → congestion →
// seed. Scenario specs are resolved once and shared across cells;
// experiment.Run clones its spec on entry, so the sharing can never leak
// between parallel runs or back into the caller.
func (st *Study) Resolve() (*Grid, error) {
	if resolveHook != nil {
		resolveHook()
	}
	specs, err := st.validate()
	if err != nil {
		return nil, err
	}
	scns := st.ScenarioList()
	cells := make([]cell, 0, st.Runs())
	for _, app := range st.AppList() {
		for _, strat := range st.StrategyList() {
			for i, scn := range scns {
				for _, vr := range st.VariantList() {
					for _, depth := range st.QueueDepthList() {
						for _, seed := range st.SeedList() {
							cells = append(cells, cell{
								Point: Point{
									Index:      len(cells),
									App:        app,
									Strategy:   strat,
									Scenario:   scn.Label(),
									Variant:    vr.Name,
									QueueDepth: depth,
									Seed:       seed,
								},
								scn:     specs[i],
								variant: vr,
							})
						}
					}
				}
			}
		}
	}
	return &Grid{st: st, cells: cells}, nil
}

// resolveHook, set only by tests, observes every grid resolution: the
// once-per-executor contract is counted, not asserted in prose.
var resolveHook func()

// config builds the cell's experiment configuration: the one place a study
// knob becomes an experiment.Config field (the golden-digest tests pin the
// result byte-for-byte).
func (c cell) config(st *Study) (experiment.Config, error) {
	cfg := experiment.Default(c.App)
	if c.Seed != 0 {
		cfg.Seed = c.Seed
		cfg.World.Seed = c.Seed
	}
	if st.Duration > 0 {
		cfg.Duration = time.Duration(st.Duration)
	}
	if st.Peers > 0 {
		cfg.World.Peers = st.Peers
	} else {
		cfg.ScalePeers(st.PeerFactor)
	}
	cfg.Scenario = c.scn
	cfg.Congestion = access.CongestionModel{QueueDepth: c.QueueDepth}
	if c.Strategy != "" || c.variant.Blind {
		// The profile is the cell's own, fresh.
		prof, err := c.variant.profile(c.App)
		if err == nil && c.Strategy != "" {
			prof.ChunkStrategy, err = policy.StrategyByName(c.Strategy)
		}
		if err != nil {
			return cfg, err
		}
		cfg.Profile = prof
	}
	return cfg, nil
}

// profile builds the variant's profile for app: the application's own
// profile, with uniform discovery when the variant is blind.
func (vr Variant) profile(app string) (*overlay.Profile, error) {
	base, err := apps.ByName(app)
	if err != nil || !vr.Blind {
		return base, err
	}
	return apps.Variant(base, vr.Name, func(p *overlay.Profile) { p.DiscoveryWeight = policy.Bias{} }), nil
}

// congestionLabel renders the congestion coordinate; depth 0 is the
// unbounded (congestion-off) default.
func congestionLabel(depth int) string {
	if depth <= 0 {
		return "off"
	}
	return "q=" + strconv.Itoa(depth)
}

// strategyLabel renders the strategy coordinate; "" is each profile's own
// strategy.
func strategyLabel(s string) string {
	if s == "" {
		return "default"
	}
	return s
}

// scenarioLabel renders the scenario coordinate; "" is the stationary
// condition.
func scenarioLabel(s string) string {
	if s == "" {
		return "stationary"
	}
	return s
}

// variantLabel renders the variant coordinate; "" is the stock profile.
func variantLabel(s string) string {
	if s == "" {
		return "stock"
	}
	return s
}
