package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"napawine/internal/access"
	"napawine/internal/chunkstream"
	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/topology"
	"napawine/internal/units"
)

func testProfile() *overlay.Profile {
	return &overlay.Profile{
		Name:              "test",
		PartnerTarget:     6,
		MaxPartners:       10,
		DropInterval:      15 * time.Second,
		ContactInterval:   2 * time.Second,
		NeighborListMax:   50,
		SignalingInterval: time.Second,
		KeepaliveFanout:   1,
		PullDelay:         4,
		MaxInflight:       4,
		ChunkStrategy:     policy.DefaultStrategy(),
		DiscoveryWeight:   policy.Bias{},
		RequestWeight:     policy.Bias{},
		RetainWeight:      policy.Bias{},
	}
}

// rig is a miniature swarm with a deferred pool, enough to compile any
// builtin scenario onto.
type rig struct {
	eng        *sim.Engine
	net        *overlay.Network
	src        *overlay.Node
	background []*overlay.Node
	deferred   []*overlay.Node
	host       func(i int) topology.Host // a new host on the rig's subnets
}

func buildRig(t testing.TB, seed int64, nBackground, nDeferred int) *rig {
	t.Helper()
	b := topology.NewBuilder(seed)
	b.AddCountry("CN", topology.Asia)
	b.AddCountry("IT", topology.Europe)
	var subs []topology.SubnetID
	for i := 0; i < 6; i++ {
		cc := topology.CC("CN")
		if i >= 4 {
			cc = "IT"
		}
		asn := b.AddAS(cc)
		subs = append(subs, b.AddSubnet(asn), b.AddSubnet(asn))
	}
	topo := b.Build()
	eng := sim.New(seed)
	net := overlay.New(eng, topo, overlay.Config{
		Calendar:      chunkstream.NewCalendar(384*units.Kbps, 48*units.KB),
		BufferWindow:  64,
		TrackerBatch:  12,
		UplinkBusyCap: 3 * time.Second,
	})
	host := func(i int) topology.Host {
		h, err := topo.NewHost(subs[i%len(subs)])
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	src := net.AddSource(host(0), access.LAN100, testProfile())
	eng.Schedule(0, src.Join)
	r := &rig{eng: eng, net: net, src: src, host: host}
	for i := 0; i < nBackground; i++ {
		nd := net.AddNode(host(i+1), access.LAN100, testProfile())
		eng.Schedule(time.Duration(i)*100*time.Millisecond, nd.Join)
		r.background = append(r.background, nd)
	}
	for i := 0; i < nDeferred; i++ {
		r.deferred = append(r.deferred, net.AddNode(host(i+1+nBackground), access.LAN100, testProfile()))
	}
	return r
}

func (r *rig) env(horizon time.Duration) Env {
	return Env{Eng: r.eng, Net: r.net, Horizon: horizon,
		Background: r.background, Deferred: r.deferred}
}

func TestRegistryShipsCanonicalScenarios(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("registry has %d scenarios, the CLI contract requires at least 4", len(names))
	}
	for _, want := range []string{"steady", "flashcrowd", "diurnal", "partition"} {
		s, err := ByName(want)
		if err != nil {
			t.Fatalf("canonical scenario %q missing: %v", want, err)
		}
		if s.Name != want || s.Description == "" {
			t.Errorf("scenario %q badly formed: %+v", want, s)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q does not validate: %v", want, err)
		}
	}
}

func TestByNameReturnsFreshCopies(t *testing.T) {
	a, err := ByName("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	a.Buckets = 77
	a.Events[0].From = 0.99
	b, _ := ByName("flashcrowd")
	if b.Buckets == 77 || b.Events[0].From == 0.99 {
		t.Error("ByName aliases registry state: mutating one copy leaked into the next")
	}
}

func TestByNameUnknownListsValidNames(t *testing.T) {
	_, err := ByName("worldcup")
	if err == nil {
		t.Fatal("unknown scenario should fail")
	}
	for _, name := range Names() {
		if !contains(err.Error(), name) {
			t.Errorf("error %q does not list valid scenario %q", err, name)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestValidateRejectsMalformedEvents(t *testing.T) {
	bad := []Event{
		{Kind: Arrivals, From: -0.1, To: 0.5},
		{Kind: Arrivals, From: 0.6, To: 0.5},
		{Kind: Arrivals, From: 0, To: 1.5},
		{Kind: Arrivals, From: 0, To: 1, Peers: 2},
		{Kind: Arrivals, From: 0, To: 1, MeanStay: -0.1},
		{Kind: Departures, From: 0.5, To: 0.6},                // no fraction
		{Kind: Departures, From: 0.5, To: 0.6, Fraction: 1.2}, // too big
		{Kind: Partition, From: 0.4, To: 0.6},                 // no target
		{Kind: Partition, From: 0.5, To: 0.5, ASes: 1},        // empty window
		{Kind: Throttle, From: 0.4, To: 0.6, Fraction: 0.5},   // no factor
		{Kind: Throttle, From: 0.4, To: 0.6, Factor: 0.5},     // no fraction
		{Kind: TrackerOutage, From: 0.5, To: 0.5},
		{Kind: RegionalChurn, From: 0.4, To: 0.6, Factor: 2},                   // no country
		{Kind: RegionalChurn, From: 0.4, To: 0.6, Country: "CN"},               // no factor
		{Kind: RegionalChurn, From: 0.5, To: 0.5, Country: "CN", Factor: 2},    // empty window
		{Kind: CountryThrottle, From: 0.4, To: 0.6, Factor: 0.5},               // no country
		{Kind: CountryThrottle, From: 0.4, To: 0.6, Country: "CN"},             // no factor
		{Kind: CountryThrottle, From: 0.5, To: 0.5, Country: "CN", Factor: .5}, // empty window
		{Kind: Zap, From: 0.5, To: 0.6, MeanStay: 0.05},                        // no fraction
		{Kind: Zap, From: 0.5, To: 0.6, Fraction: 1.5, MeanStay: 0.05},         // too big
		{Kind: Zap, From: 0.5, To: 0.6, Fraction: 0.4},                         // no mean away
		{Kind: Kind(99), From: 0, To: 1},
	}
	for i, ev := range bad {
		s := Spec{Name: "bad", Events: []Event{ev}}
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%v): malformed event validated", i, ev.Kind)
		}
	}
	if err := (&Spec{Events: []Event{}}).Validate(); err == nil {
		t.Error("nameless spec validated")
	}
	// A throttle slows links: a factor of 1 restores them, and a larger one
	// is refused before any world is built, naming the event, rather than
	// lifting a delivery rate past the overlay's 32 bits partway through a run.
	for _, kind := range []Kind{Throttle, CountryThrottle} {
		for _, c := range []struct {
			factor float64
			ok     bool
		}{{0.25, true}, {1, true}, {1.5, false}, {100, false}} {
			ev := Event{Kind: kind, From: 0.4, To: 0.6, Fraction: 0.5, Country: "CN", Factor: c.factor}
			s := Spec{Name: "boost", Events: []Event{{Kind: Arrivals, From: 0, To: 0.1}, ev}}
			err := s.Validate()
			if c.ok != (err == nil) {
				t.Errorf("%v factor %v: Validate = %v", kind, c.factor, err)
			}
			if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("event 1: %v: factor %v outside (0, 1]", kind, c.factor)) {
				t.Errorf("%v factor %v: %q does not name the event and its factor", kind, c.factor, err)
			}
		}
	}
	if err := (&Spec{Name: "x", ExtraPeerFactor: -1}).Validate(); err == nil {
		t.Error("negative ExtraPeerFactor validated")
	}
}

func TestShapeOffsetsStayInWindowAndDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 4000
	mean := func(shape Shape) float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			x := shapeOffset(rng, shape)
			if x < 0 || x >= 1 {
				t.Fatalf("%v offset %v outside [0,1)", shape, x)
			}
			sum += x
		}
		return sum / n
	}
	uni, burst, wave := mean(ShapeUniform), mean(ShapeBurst), mean(ShapeWave)
	if burst >= uni-0.05 {
		t.Errorf("burst arrivals should front-load the window: mean %.3f vs uniform %.3f", burst, uni)
	}
	if wave < 0.45 || wave > 0.55 {
		t.Errorf("wave arrivals should centre the window: mean %.3f", wave)
	}
}

func TestFlashCrowdActivatesDeferredPool(t *testing.T) {
	r := buildRig(t, 1, 10, 20)
	s, _ := ByName("flashcrowd")
	if err := Compile(s, r.env(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Before the burst window nothing from the pool is online.
	r.eng.Run(25 * time.Second) // 21% of the run
	for i, nd := range r.deferred {
		if nd.Online() {
			t.Fatalf("deferred peer %d online before the burst window", i)
		}
	}
	// After the window the whole pool has joined.
	r.eng.Run(60 * time.Second) // 50%
	joined := 0
	for _, nd := range r.deferred {
		if nd.Online() {
			joined++
		}
	}
	if joined != len(r.deferred) {
		t.Errorf("only %d/%d deferred peers joined after the burst", joined, len(r.deferred))
	}
	// The exodus takes roughly half the swarm down by the end.
	before := r.net.OnlineCount()
	r.eng.Run(2 * time.Minute)
	after := r.net.OnlineCount()
	if after >= before {
		t.Errorf("mass exodus did not shrink the swarm: %d -> %d online", before, after)
	}
}

func TestPartitionBlocksAndRestores(t *testing.T) {
	r := buildRig(t, 2, 16, 0)
	s := &Spec{Name: "cut", Events: []Event{
		{Kind: Partition, From: 0.4, To: 0.6, Country: "IT"},
	}}
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	var italians []*overlay.Node
	for _, nd := range r.background {
		if nd.Host.Country == "IT" {
			italians = append(italians, nd)
		}
	}
	if len(italians) == 0 {
		t.Fatal("rig has no IT peers")
	}
	r.eng.Run(50 * time.Second) // mid-partition
	for i, nd := range italians {
		if nd.Online() || !nd.Blocked() {
			t.Errorf("IT peer %d not partitioned off at 50%%", i)
		}
	}
	r.eng.Run(70 * time.Second) // past restoration
	for i, nd := range italians {
		if !nd.Online() || nd.Blocked() {
			t.Errorf("IT peer %d did not reconnect after the partition", i)
		}
	}
}

func TestPartitionWithNoMatchFails(t *testing.T) {
	r := buildRig(t, 3, 4, 0)
	s := &Spec{Name: "cut", Events: []Event{
		{Kind: Partition, From: 0.4, To: 0.6, Country: "US"},
	}}
	if err := Compile(s, r.env(time.Minute)); err == nil {
		t.Error("partition matching no peers should fail to compile")
	}
}

func TestTrackerOutageWindow(t *testing.T) {
	r := buildRig(t, 4, 8, 0)
	s, _ := ByName("outage")
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	probe := func(at time.Duration, wantPaused bool) {
		r.eng.Schedule(at, func() {
			if r.net.TrackerPaused() != wantPaused {
				t.Errorf("tracker paused=%v at %v, want %v", r.net.TrackerPaused(), at, wantPaused)
			}
		})
	}
	probe(30*time.Second, false)
	probe(50*time.Second, true)
	probe(70*time.Second, false)
	r.eng.Run(100 * time.Second)
}

func TestThrottleScalesAndRestoresLinks(t *testing.T) {
	r := buildRig(t, 5, 12, 0)
	s := &Spec{Name: "squeeze", Events: []Event{
		{Kind: Throttle, From: 0.3, To: 0.7, Fraction: 1.0, Factor: 0.25},
	}}
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	full := access.LAN100.Spec.Up
	r.eng.Run(50 * time.Second)
	throttled := 0
	for _, nd := range r.background {
		if nd.Link.Spec.Up < full {
			throttled++
		}
	}
	if throttled != len(r.background) {
		t.Errorf("%d/%d links throttled mid-window, want all", throttled, len(r.background))
	}
	r.eng.Run(80 * time.Second)
	for i, nd := range r.background {
		if nd.Link.Spec.Up != full {
			t.Errorf("peer %d link not restored: %v", i, nd.Link.Spec.Up)
		}
	}
}

func TestCompiledScenarioIsDeterministic(t *testing.T) {
	run := func() (uint64, int64, int) {
		r := buildRig(t, 42, 12, 12)
		s, _ := ByName("flashcrowd")
		if err := Compile(s, r.env(90*time.Second)); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(90 * time.Second)
		return r.eng.Processed(), r.net.LedgerView().VideoTotal, r.net.OnlineCount()
	}
	p1, v1, o1 := run()
	p2, v2, o2 := run()
	if p1 != p2 || v1 != v2 || o1 != o2 {
		t.Errorf("same seed+spec diverged: events %d/%d, video %d/%d, online %d/%d",
			p1, p2, v1, v2, o1, o2)
	}
	if v1 == 0 {
		t.Error("scenario run moved no video")
	}
}

func TestCompileEnvValidation(t *testing.T) {
	r := buildRig(t, 6, 2, 0)
	s, _ := ByName("steady")
	if err := Compile(s, Env{Eng: nil, Net: r.net, Horizon: time.Minute}); err == nil {
		t.Error("nil engine accepted")
	}
	if err := Compile(s, Env{Eng: r.eng, Net: r.net, Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if err := Compile(&Spec{}, r.env(time.Minute)); err == nil {
		t.Error("invalid spec compiled")
	}
}

func TestBucketCountBounds(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultBuckets}, {-3, DefaultBuckets}, {24, 24}, {500, MaxBuckets},
	} {
		s := Spec{Buckets: tc.in}
		if got := s.BucketCount(); got != tc.want {
			t.Errorf("BucketCount(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestArrivalsDuringPartitionSurvive: a deferred peer whose arrival lands
// inside a partition window must connect when the partition heals, not be
// silently lost.
func TestArrivalsDuringPartitionSurvive(t *testing.T) {
	// 12 background peers cover every AS of the rig, so ASes:100 below
	// ranks (and blacks out) all of them.
	r := buildRig(t, 7, 12, 10)
	s := &Spec{Name: "storm", Events: []Event{
		// Whole pool arrives in [40%, 50%] — inside a total blackout
		// (ASes far above the rig's AS count ⇒ every AS partitioned).
		{Kind: Arrivals, From: 0.4, To: 0.5, Shape: ShapeUniform},
		{Kind: Partition, From: 0.3, To: 0.7, ASes: 100},
	}}
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(60 * time.Second) // mid-blackout, past the arrival window
	for i, nd := range r.deferred {
		if nd.Online() {
			t.Fatalf("deferred peer %d online during the blackout", i)
		}
	}
	r.eng.Run(80 * time.Second) // partitions healed at 70s
	joined := 0
	for _, nd := range r.deferred {
		if nd.Online() {
			joined++
		}
	}
	if joined != len(r.deferred) {
		t.Errorf("only %d/%d blackout-window arrivals connected after healing", joined, len(r.deferred))
	}
}

// TestDeparturesArePermanent: exodus victims must stay gone even when they
// have active churn cycles that would otherwise rejoin them.
func TestDeparturesArePermanent(t *testing.T) {
	r := buildRig(t, 8, 0, 0)
	var peers []*overlay.Node
	for i := 0; i < 12; i++ {
		h, err := r.net.Topo.NewHost(topology.SubnetID(i % r.net.Topo.Subnets()))
		if err != nil {
			t.Fatal(err)
		}
		nd := r.net.AddNode(h, access.LAN100, testProfile())
		// Short cycles: a resurrected victim would be back online within
		// ~20 virtual seconds of the exodus.
		nd.ScheduleChurn(time.Duration(i)*100*time.Millisecond, 15*time.Second, 4*time.Second)
		peers = append(peers, nd)
	}
	s := &Spec{Name: "goodbye", Events: []Event{
		{Kind: Departures, From: 0.25, To: 0.3, Fraction: 1.0},
	}}
	env := Env{Eng: r.eng, Net: r.net, Horizon: 2 * time.Minute, Background: peers}
	if err := Compile(s, env); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(2 * time.Minute)
	// Every peer online at the event retired; peers mid-off-phase kept
	// churning. No retired peer may have resurfaced.
	retired := 0
	for i, nd := range peers {
		if nd.Retired() {
			retired++
			if nd.Online() {
				t.Errorf("retired peer %d is back online", i)
			}
		}
	}
	if retired < len(peers)/2 {
		t.Errorf("exodus retired only %d/%d churning peers", retired, len(peers))
	}
}

// TestValidateRejectsOverlappingWindows: windowed incident kinds toggle
// absolute state, so two live windows of the same kind would end each other
// early — the spec must be rejected, not silently misread.
func TestValidateRejectsOverlappingWindows(t *testing.T) {
	bad := [][]Event{
		{
			{Kind: TrackerOutage, From: 0.2, To: 0.5},
			{Kind: TrackerOutage, From: 0.4, To: 0.8},
		},
		{ // touching windows count too: same-instant order is event-order luck
			{Kind: Throttle, From: 0.2, To: 0.5, Fraction: 0.5, Factor: 0.5},
			{Kind: Throttle, From: 0.5, To: 0.8, Fraction: 0.5, Factor: 0.5},
		},
		{ // overlap detection must not depend on event order
			{Kind: Partition, From: 0.1, To: 0.3, ASes: 1},
			{Kind: Partition, From: 0.6, To: 0.9, ASes: 1},
			{Kind: Partition, From: 0.2, To: 0.4, ASes: 1},
		},
	}
	for i, events := range bad {
		s := Spec{Name: "clash", Events: events}
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: overlapping windows validated", i)
		}
	}
	// Disjoint windows of the same kind and overlapping windows of
	// different kinds are fine.
	good := Spec{Name: "fine", Events: []Event{
		{Kind: TrackerOutage, From: 0.1, To: 0.3},
		{Kind: TrackerOutage, From: 0.5, To: 0.7},
		{Kind: Throttle, From: 0.2, To: 0.6, Fraction: 0.5, Factor: 0.5},
		{Kind: Departures, From: 0.2, To: 0.6, Fraction: 0.3},
		{Kind: Departures, From: 0.3, To: 0.5, Fraction: 0.3},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("disjoint/different-kind windows rejected: %v", err)
	}
}

// TestValidateWindowRulesForNewKinds: country-targeted windows conflict only
// within a country; Throttle and CountryThrottle share the link-scale state
// and therefore conflict across kinds; only one SourceFailover is allowed.
func TestValidateWindowRulesForNewKinds(t *testing.T) {
	bad := [][]Event{
		{ // same-country regional churn windows overlap
			{Kind: RegionalChurn, From: 0.2, To: 0.5, Country: "CN", Factor: 2},
			{Kind: RegionalChurn, From: 0.4, To: 0.8, Country: "CN", Factor: 3},
		},
		{ // same-country throttle windows overlap
			{Kind: CountryThrottle, From: 0.2, To: 0.5, Country: "IT", Factor: 0.5},
			{Kind: CountryThrottle, From: 0.5, To: 0.8, Country: "IT", Factor: 0.25},
		},
		{ // random-victim throttle may land on the throttled country
			{Kind: Throttle, From: 0.2, To: 0.5, Fraction: 0.5, Factor: 0.5},
			{Kind: CountryThrottle, From: 0.4, To: 0.8, Country: "CN", Factor: 0.5},
		},
		{ // two failovers
			{Kind: SourceFailover, From: 0.2, To: 0.25},
			{Kind: SourceFailover, From: 0.6, To: 0.65},
		},
	}
	for i, events := range bad {
		s := Spec{Name: "clash", Events: events}
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: conflicting timeline validated", i)
		}
	}
	good := Spec{Name: "fine", Events: []Event{
		// Different countries may overlap freely, zap overlaps anything,
		// and a single failover rides alongside.
		{Kind: RegionalChurn, From: 0.2, To: 0.6, Country: "CN", Factor: 2},
		{Kind: RegionalChurn, From: 0.3, To: 0.5, Country: "IT", Factor: 2},
		{Kind: CountryThrottle, From: 0.65, To: 0.9, Country: "CN", Factor: 0.5},
		{Kind: Zap, From: 0.3, To: 0.5, Fraction: 0.2, MeanStay: 0.02},
		{Kind: Zap, From: 0.4, To: 0.6, Fraction: 0.2, MeanStay: 0.02},
		{Kind: SourceFailover, From: 0.7, To: 0.7},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("legal timeline rejected: %v", err)
	}
}

// TestExpStaySmallMeanKeepsFloor: the documented one-second floor must win
// over the 6×-mean cap. Before the fix, means under ~167ms clamped draws to
// 6×mean < 1s — short -dur smoke runs got sub-second sessions the docs
// promise cannot happen.
func TestExpStaySmallMeanKeepsFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if d := expStay(rng, 50*time.Millisecond); d < time.Second {
			t.Fatalf("draw %d: stay %v below the one-second floor (mean 50ms)", i, d)
		}
	}
	// The large-mean regime keeps both bounds: floor 1s, cap 6×mean.
	for i := 0; i < 2000; i++ {
		d := expStay(rng, 10*time.Second)
		if d < time.Second || d > 60*time.Second {
			t.Fatalf("draw %d: stay %v outside [1s, 60s] (mean 10s)", i, d)
		}
	}
}

// TestArrivalsStopAtTheRemainingPool: an arrivals share past what earlier
// events left activates the rest of the pool, a last peer included.
func TestArrivalsStopAtTheRemainingPool(t *testing.T) {
	r := buildRig(t, 17, 4, 10)
	s := &Spec{Name: "two-crowds", Events: []Event{
		{Kind: Arrivals, From: 0.1, To: 0.2, Peers: 0.9},
		{Kind: Arrivals, From: 0.3, To: 0.4, Peers: 0.6},
	}}
	if err := Compile(s, r.env(time.Minute)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(time.Minute)
	for i, nd := range r.deferred {
		if !nd.Online() {
			t.Errorf("deferred peer %d never arrived", i)
		}
	}
}

// TestInstantDeparturesLeaveAtOnce: a departures window of zero width
// retires every victim at its instant.
func TestInstantDeparturesLeaveAtOnce(t *testing.T) {
	r := buildRig(t, 18, 8, 0)
	s := &Spec{Name: "exodus", Events: []Event{{Kind: Departures, From: 0.5, To: 0.5, Fraction: 1}}}
	if err := Compile(s, r.env(time.Minute)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(30 * time.Second)
	for i, nd := range r.background {
		if !nd.Retired() {
			t.Errorf("background peer %d not retired at the departure instant", i)
		}
	}
}

// TestCompileFailsLoudlyOnEmptyArrivals: an Arrivals event with no deferred
// pool must be a compile error, not a silent no-op — a file-authored spec
// with ExtraPeerFactor 0 would otherwise "run" and inject nothing.
func TestCompileFailsLoudlyOnEmptyArrivals(t *testing.T) {
	r := buildRig(t, 10, 8, 0)
	s, _ := ByName("flashcrowd")
	err := Compile(s, r.env(time.Minute))
	if err == nil {
		t.Fatal("arrivals with an empty deferred pool compiled silently")
	}
	if !contains(err.Error(), "deferred pool") {
		t.Errorf("error %q should explain the empty pool", err)
	}

	// An exhausted pool is the same bug one event later.
	r2 := buildRig(t, 11, 4, 6)
	exhausted := &Spec{Name: "greedy", Events: []Event{
		{Kind: Arrivals, From: 0.1, To: 0.2},
		{Kind: Arrivals, From: 0.5, To: 0.6},
	}}
	if err := Compile(exhausted, r2.env(time.Minute)); err == nil {
		t.Error("second arrivals event over an exhausted pool compiled silently")
	}

	// A pool share so small it activates nobody is equally silent death.
	r3 := buildRig(t, 12, 4, 6)
	tiny := &Spec{Name: "tiny", Events: []Event{
		{Kind: Arrivals, From: 0.1, To: 0.2, Peers: 0.01},
	}}
	if err := Compile(tiny, r3.env(time.Minute)); err == nil {
		t.Error("arrivals activating zero peers compiled silently")
	}
}

// TestSourceFailoverPromotesBackup: the source retires at From; at To the
// designated backup is the new origin and the swarm keeps moving video.
func TestSourceFailoverPromotesBackup(t *testing.T) {
	r := buildRig(t, 13, 12, 0)
	s, _ := ByName("failover") // failover at [40%, 45%]
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	oldSrc := r.src
	r.eng.Run(42 * time.Second) // source dead, backup not yet promoted
	if oldSrc.Online() || !oldSrc.Retired() {
		t.Error("source not retired inside the failover gap")
	}
	if got := r.net.Source(); got != oldSrc {
		t.Error("source handed over before the promotion instant")
	}
	r.eng.Run(50 * time.Second) // past promotion
	newSrc := r.net.Source()
	if newSrc == oldSrc || newSrc == nil {
		t.Fatal("no backup promoted after the gap")
	}
	if !newSrc.IsSource() || oldSrc.IsSource() {
		t.Error("IsSource not handed over")
	}
	if !newSrc.Online() {
		t.Error("promoted backup is offline")
	}
	videoAt50 := r.net.LedgerView().VideoTotal
	r.eng.Run(100 * time.Second)
	if r.net.LedgerView().VideoTotal <= videoAt50 {
		t.Error("swarm moved no video after the failover")
	}
}

// TestSourceFailoverPrefersAHighBandwidthBackup: the backup is the first
// high-bandwidth background peer, else the first background peer.
func TestSourceFailoverPrefersAHighBandwidthBackup(t *testing.T) {
	for _, tc := range []struct {
		links []access.Link
		want  int
	}{
		{[]access.Link{access.DSL6, access.LAN100, access.LAN100}, 1},
		{[]access.Link{access.DSL6, access.DSL4}, 0},
	} {
		r := buildRig(t, 16, 0, 0)
		for i, link := range tc.links {
			nd := r.net.AddNode(r.host(i+1), link, testProfile())
			r.eng.Schedule(0, nd.Join)
			r.background = append(r.background, nd)
		}
		s := &Spec{Name: "failover", Events: []Event{{Kind: SourceFailover, From: 0.4, To: 0.5}}}
		if err := Compile(s, r.env(time.Minute)); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(40 * time.Second)
		if got := r.net.Source(); got != r.background[tc.want] {
			t.Errorf("links %v: backup %v, want background peer %d", tc.links, got.Host, tc.want)
		}
	}
}

// TestSourceFailoverNeedsBackup: a spec whose selector matches no backup
// peer must fail at compile time.
func TestSourceFailoverNeedsBackup(t *testing.T) {
	r := buildRig(t, 14, 6, 0)
	s := &Spec{Name: "doomed", Events: []Event{
		{Kind: SourceFailover, From: 0.4, To: 0.5, Country: "US"},
	}}
	if err := Compile(s, r.env(time.Minute)); err == nil {
		t.Error("failover with no matching backup compiled")
	}
	empty := &Spec{Name: "alone", Events: []Event{
		{Kind: SourceFailover, From: 0.4, To: 0.5},
	}}
	if err := Compile(empty, Env{Eng: r.eng, Net: r.net, Horizon: time.Minute}); err == nil {
		t.Error("failover with no background peers compiled")
	}
}

// TestRegionalChurnScalesOneCountry: CN peers flap faster inside the window
// and are restored after; IT peers never change.
func TestRegionalChurnScalesOneCountry(t *testing.T) {
	r := buildRig(t, 15, 12, 0)
	s := &Spec{Name: "storm", Events: []Event{
		{Kind: RegionalChurn, From: 0.3, To: 0.7, Country: "CN", Factor: 4},
	}}
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	check := func(at time.Duration, wantCN float64) {
		r.eng.Run(at)
		for i, nd := range r.background {
			want := 1.0
			if nd.Host.Country == "CN" {
				want = wantCN
			}
			if got := nd.ChurnScale(); got != want {
				t.Errorf("at %v: peer %d (%s) churn scale %v, want %v", at, i, nd.Host.Country, got, want)
			}
		}
	}
	check(20*time.Second, 1)
	check(50*time.Second, 4)
	check(80*time.Second, 1)
}

func TestRegionalChurnNoMatchFails(t *testing.T) {
	r := buildRig(t, 16, 6, 0)
	s := &Spec{Name: "ghost", Events: []Event{
		{Kind: RegionalChurn, From: 0.3, To: 0.7, Country: "US", Factor: 2},
	}}
	if err := Compile(s, r.env(time.Minute)); err == nil {
		t.Error("regional churn matching no peers compiled")
	}
}

// TestCountryThrottleScalesAndRestores: every CN link runs at the factor
// inside the window and is restored after; other countries are untouched.
func TestCountryThrottleScalesAndRestores(t *testing.T) {
	r := buildRig(t, 17, 12, 0)
	s := &Spec{Name: "squeeze", Events: []Event{
		{Kind: CountryThrottle, From: 0.3, To: 0.7, Country: "CN", Factor: 0.25},
	}}
	if err := Compile(s, r.env(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	full := access.LAN100.Spec.Up
	r.eng.Run(50 * time.Second)
	for i, nd := range r.background {
		throttled := nd.Link.Spec.Up < full
		if wantThrottled := nd.Host.Country == "CN"; throttled != wantThrottled {
			t.Errorf("mid-window peer %d (%s): throttled=%v, want %v", i, nd.Host.Country, throttled, wantThrottled)
		}
	}
	r.eng.Run(80 * time.Second)
	for i, nd := range r.background {
		if nd.Link.Spec.Up != full {
			t.Errorf("peer %d link not restored: %v", i, nd.Link.Spec.Up)
		}
	}
}

func TestCountryThrottleNoMatchFails(t *testing.T) {
	r := buildRig(t, 18, 6, 0)
	s := &Spec{Name: "ghost", Events: []Event{
		{Kind: CountryThrottle, From: 0.3, To: 0.7, Country: "US", Factor: 0.5},
	}}
	if err := Compile(s, r.env(time.Minute)); err == nil {
		t.Error("country throttle matching no peers compiled")
	}
}

// TestZapLeavesAndRejoins: zap victims go offline inside the window and
// surf back — no one is retired, and the swarm ends the run repopulated.
func TestZapLeavesAndRejoins(t *testing.T) {
	r := buildRig(t, 19, 16, 0)
	s := &Spec{Name: "surf", Events: []Event{
		{Kind: Zap, From: 0.3, To: 0.35, Fraction: 0.5, MeanStay: 0.02},
	}}
	if err := Compile(s, r.env(200*time.Second)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(70 * time.Second) // mid-surf: leaves done at 70s = 35%
	dipped := 0
	for _, nd := range r.background {
		if !nd.Online() {
			dipped++
		}
		if nd.Retired() {
			t.Error("zap retired a viewer; zapping must be temporary")
		}
	}
	if dipped == 0 {
		t.Error("zap window took no one offline")
	}
	r.eng.Run(200 * time.Second)
	back := 0
	for _, nd := range r.background {
		if nd.Online() {
			back++
		}
	}
	if back != len(r.background) {
		t.Errorf("only %d/%d peers online at the end; zappers must surf back", back, len(r.background))
	}
}

// TestZapDoesNotResurrectEndedSessions: a zapped-away arrivals viewer whose
// finite session would have ended while it was off surfing must stay gone —
// the session-end Leave no-ops on the offline node, and an unconditional
// rejoin would resurrect the viewer for the rest of the run.
func TestZapDoesNotResurrectEndedSessions(t *testing.T) {
	r := buildRig(t, 23, 0, 20)
	s := &Spec{Name: "boundary", Events: []Event{
		// Whole pool in by 2% of the run, sessions mean 3% (ends ≤ 20%).
		{Kind: Arrivals, From: 0, To: 0.02, MeanStay: 0.03},
		// Everyone still watching at 5% zaps away for ~50% of the horizon:
		// nearly every away time outlives the viewer's own session.
		{Kind: Zap, From: 0.05, To: 0.06, Fraction: 1.0, MeanStay: 0.5},
	}}
	if err := Compile(s, r.env(200*time.Second)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(10 * time.Second) // past the arrival window
	watching := 0
	for _, nd := range r.deferred {
		if nd.Online() {
			watching++
		}
	}
	if watching == 0 {
		t.Fatal("setup: no arrivals online before the zap window")
	}
	r.eng.Run(200 * time.Second)
	// Every session was scheduled to end by ~20% of the run (join ≤ 4s +
	// 6×mean cap 36s), so by the horizon the audience must be gone — a
	// survivor is a zap rejoin that outlived its own session.
	for i, nd := range r.deferred {
		if nd.Online() {
			t.Errorf("peer %d resurrected by a zap rejoin after its session ended", i)
		}
	}
}

// TestNewScenariosDeterministic: the cross-worker byte-identity contract for
// every new event kind — same seed + spec ⇒ identical event counts, video
// totals and online populations, however many runs happen around them.
func TestNewScenariosDeterministic(t *testing.T) {
	specs := map[string]func() *Spec{
		"failover": func() *Spec { s, _ := ByName("failover"); return s },
		"zapping":  func() *Spec { s, _ := ByName("zapping"); return s },
		"regional": func() *Spec { s, _ := ByName("regional"); return s },
		"combined": func() *Spec {
			return &Spec{Name: "combined", Events: []Event{
				{Kind: RegionalChurn, From: 0.1, To: 0.4, Country: "CN", Factor: 3},
				{Kind: CountryThrottle, From: 0.5, To: 0.7, Country: "IT", Factor: 0.5},
				{Kind: Zap, From: 0.45, To: 0.55, Fraction: 0.3, MeanStay: 0.03},
				{Kind: SourceFailover, From: 0.8, To: 0.85},
			}}
		},
	}
	for name, build := range specs {
		run := func() (uint64, int64, int) {
			r := buildRig(t, 77, 14, 0)
			// Give half the peers churn cycles so RegionalChurn has teeth.
			for i, nd := range r.background {
				if i%2 == 0 {
					nd.ScheduleChurn(time.Duration(i)*50*time.Millisecond, 30*time.Second, 8*time.Second)
				}
			}
			if err := Compile(build(), r.env(2*time.Minute)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r.eng.Run(2 * time.Minute)
			return r.eng.Processed(), r.net.LedgerView().VideoTotal, r.net.OnlineCount()
		}
		p1, v1, o1 := run()
		p2, v2, o2 := run()
		if p1 != p2 || v1 != v2 || o1 != o2 {
			t.Errorf("%s: same seed+spec diverged: events %d/%d, video %d/%d, online %d/%d",
				name, p1, p2, v1, v2, o1, o2)
		}
		if v1 == 0 {
			t.Errorf("%s: scenario run moved no video", name)
		}
	}
}

// TestPartitionRankingIgnoresDeferredPool: the "N most-populated ASes"
// selector ranks by the base background only, so a huge deferred pool
// cannot steer the incident toward ASes that are mostly offline.
func TestPartitionRankingIgnoresDeferredPool(t *testing.T) {
	r := buildRig(t, 9, 12, 0)
	// Stack a deferred pool into one AS by adding nodes on one subnet.
	var deferred []*overlay.Node
	for i := 0; i < 40; i++ {
		h, err := r.net.Topo.NewHost(topology.SubnetID(10)) // an IT AS subnet
		if err != nil {
			t.Fatal(err)
		}
		deferred = append(deferred, r.net.AddNode(h, access.LAN100, testProfile()))
	}
	env := Env{Eng: r.eng, Net: r.net, Horizon: time.Minute,
		Background: r.background, Deferred: deferred}
	targets := partitionTargets(Event{Kind: Partition, ASes: 1}, env)
	// The rig spreads 12 background peers round-robin over 12 subnets in 6
	// ASes; the deferred-stacked IT AS must not win the ranking just
	// because 40 offline peers sit there. The chosen AS is decided by
	// background count (all equal ⇒ lowest ASN, a CN AS), and none of the
	// 40 stacked deferred peers may be among the targets.
	stacked := deferred[0].Host.AS
	for _, nd := range targets {
		if nd.Host.AS == stacked {
			t.Fatalf("partition ranking chose the deferred-stacked AS%d", stacked)
		}
	}
	if len(targets) == 0 {
		t.Fatal("partition selector matched nothing")
	}
}
