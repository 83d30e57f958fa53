// Package scenario injects declarative workload timelines — flash crowds,
// diurnal population waves, AS partitions, access-link throttling, tracker
// outages — into a running experiment.
//
// The paper observes each application under a single stationary condition
// (one CCTV-1 broadcast at China peak hour, §II); measurement studies of the
// same clients under dynamics (Silverston & Fourmaux's IPTV comparison,
// Mathieu & Perino's resource-aware epidemic streaming) show that population
// and network transients are where locality and bandwidth policies actually
// earn or lose their keep. A Spec is a named, seedable list of events over
// the virtual run; Compile schedules them onto the experiment's existing
// sim.Engine, so a scenario inherits the engine's determinism — the same
// seed and spec replay byte-identically, regardless of how many experiments
// run in parallel around it.
//
// Event times are fractions of the run horizon, not absolute instants: the
// same scenario stretches from a 30-second smoke run to the paper's full
// virtual hour without editing the spec.
package scenario

import (
	"fmt"
	"time"

	"napawine/internal/topology"
)

// Kind enumerates the event families a timeline can contain.
type Kind int

// Event kinds.
const (
	// Arrivals activates peers from the experiment's deferred pool over the
	// [From, To] window, following Shape.
	Arrivals Kind = iota
	// Departures makes a Fraction of the online non-probe population leave
	// for good, spread across the [From, To] window — a program-boundary
	// exodus. Victims retire: their own churn cycles do not bring them
	// back.
	Departures
	// Partition takes an AS set (a country's ASes, or the N most populated
	// background ASes) off the network for the [From, To] window. Victims
	// drop offline at From and reconnect at To if they were online.
	Partition
	// Throttle runs a Fraction of the non-probe population's access links
	// at Factor × capacity during the [From, To] window.
	Throttle
	// TrackerOutage pauses the tracker for the [From, To] window: discovery
	// stalls, established partnerships keep streaming.
	TrackerOutage
	// SourceFailover retires the stream source at From; at To a designated
	// backup peer (the first high-bandwidth background peer, optionally
	// restricted to Country) is promoted to be the new injection point.
	// The [From, To] gap is the blackout no peer can fill from the feed.
	SourceFailover
	// RegionalChurn scales the churn rate of one Country's peers by Factor
	// during the [From, To] window: a correlated regional instability
	// (power flickers, access-network flaps) rather than independent churn.
	RegionalChurn
	// CountryThrottle runs every one of Country's peers' access links at
	// Factor × capacity during the [From, To] window — structural
	// targeting like Partition, the link action of Throttle.
	CountryThrottle
	// Zap scripts a channel-zapping audience: a Fraction of the online
	// peers Leave at random instants in the [From, To] window and rejoin
	// after short exponential away times with mean MeanStay (a horizon
	// fraction) — program-boundary surfing, not an exodus.
	Zap
)

// kindNames holds each kind's stable wire/doc name, indexed by kind. The
// codec round-trips specs through these names, never raw ints, so a file
// stays readable and survives reordering of the Kind constants.
var kindNames = enumNames[Kind]{what: "event kind", typ: "Kind", list: []string{
	Arrivals:        "arrivals",
	Departures:      "departures",
	Partition:       "partition",
	Throttle:        "throttle",
	TrackerOutage:   "tracker-outage",
	SourceFailover:  "source-failover",
	RegionalChurn:   "regional-churn",
	CountryThrottle: "country-throttle",
	Zap:             "zap",
}}

// String names the kind for error messages and docs.
func (k Kind) String() string { return kindNames.name(k) }

// MarshalText encodes the kind as its wire name (the JSON codec rides on
// this, so specs never contain raw enum ints).
func (k Kind) MarshalText() ([]byte, error) { return kindNames.marshal(k) }

// Shape selects the arrival-time density of an Arrivals event.
type Shape int

// Arrival shapes.
const (
	// ShapeUniform spreads arrivals evenly over the window — with random
	// offsets this is a Poisson trickle conditioned on the count.
	ShapeUniform Shape = iota
	// ShapeBurst front-loads the window with exponentially decaying
	// density: the classic flash-crowd onset.
	ShapeBurst
	// ShapeWave peaks arrival density mid-window (half-sine): one diurnal
	// hump over the virtual day.
	ShapeWave
)

// shapeNames holds each shape's stable wire/doc name, indexed by shape.
var shapeNames = enumNames[Shape]{what: "arrival shape", typ: "Shape", list: []string{
	ShapeUniform: "uniform",
	ShapeBurst:   "burst",
	ShapeWave:    "wave",
}}

// String names the shape for error messages and docs.
func (s Shape) String() string { return shapeNames.name(s) }

// MarshalText encodes the shape as its wire name.
func (s Shape) MarshalText() ([]byte, error) { return shapeNames.marshal(s) }

// Event is one timeline entry. From and To are fractions of the experiment
// horizon in [0, 1]; point events use From == To. The json tags are the
// file-spec schema (see Decode/Encode): kinds and shapes travel as names.
type Event struct {
	Kind Kind    `json:"kind"`
	From float64 `json:"from"`
	To   float64 `json:"to"`

	// Arrivals knobs.
	//
	// Peers is the share of the deferred pool this event activates; <= 0
	// means every peer not claimed by an earlier Arrivals event. MeanStay,
	// when positive, gives activated peers exponential session lengths with
	// this mean (as a fraction of the horizon); zero means they stay to the
	// end. Zap reuses MeanStay as the mean away time (required there).
	Peers    float64 `json:"peers,omitempty"`
	Shape    Shape   `json:"shape,omitempty"`
	MeanStay float64 `json:"mean_stay,omitempty"`

	// Departures / Throttle / Zap target share of the eligible population.
	Fraction float64 `json:"fraction,omitempty"`

	// Partition targeting: all ASes of Country when set, otherwise the
	// ASes most-populated *background* ASes (ties broken by lower AS
	// number; the deferred pool does not influence the ranking but is
	// blacked out with the chosen ASes). RegionalChurn and CountryThrottle
	// require Country; SourceFailover optionally restricts the backup peer
	// to Country.
	Country topology.CC `json:"country,omitempty"`
	ASes    int         `json:"ases,omitempty"`

	// Throttle / CountryThrottle capacity multiplier (0.25 = quarter
	// speed); RegionalChurn churn-rate multiplier (3 = flap 3× as often).
	Factor float64 `json:"factor,omitempty"`
}

// Spec is a named, declarative workload timeline.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// ExtraPeerFactor sizes the deferred peer pool relative to the base
	// background population (1.0 doubles the potential swarm). The
	// experiment layer synthesizes the pool via world.Spec.ExtraPeers.
	ExtraPeerFactor float64 `json:"extra_peer_factor,omitempty"`

	// Buckets is the number of time-series sample buckets over the run
	// (0 selects DefaultBuckets; clamped to MaxBuckets so per-run summary
	// memory stays bounded no matter what a spec asks for).
	Buckets int `json:"buckets,omitempty"`

	Events []Event `json:"events,omitempty"`
}

// Clone returns an independent deep copy: mutating the copy (or compiling
// it) can never leak into the original. Parallel battery layers hand each
// worker its own clone so one Spec value is never shared across goroutines.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	cp := *s
	if s.Events != nil {
		cp.Events = append([]Event(nil), s.Events...)
	}
	return &cp
}

// Time-series bucket bounds. MaxBuckets caps the memory every run summary
// retains; DefaultBuckets matches the granularity of the paper's per-hour
// observations scaled to short runs.
const (
	DefaultBuckets = 12
	MaxBuckets     = 96
)

// BucketCount resolves the spec's bucket request against the bounds.
func (s *Spec) BucketCount() int {
	b := s.Buckets
	if b <= 0 {
		b = DefaultBuckets
	}
	if b > MaxBuckets {
		b = MaxBuckets
	}
	return b
}

// Validate checks the spec is compilable; it reports the first offending
// event by index.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec without a name")
	}
	if s.ExtraPeerFactor < 0 {
		return fmt.Errorf("scenario %s: negative ExtraPeerFactor %v", s.Name, s.ExtraPeerFactor)
	}
	for i, ev := range s.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
		}
	}
	// Windowed incident kinds toggle absolute state (block/unblock, pause/
	// resume, throttle/restore), so two live windows over the same state
	// would end each other early. Reject the overlap loudly instead of
	// running a timeline that silently means something else. Touching
	// windows count as overlapping: same-instant ordering would depend on
	// event order.
	for i, a := range s.Events {
		for j := i + 1; j < len(s.Events); j++ {
			b := s.Events[j]
			if !windowsConflict(a, b) {
				continue
			}
			if a.From <= b.To && b.From <= a.To {
				return fmt.Errorf("scenario %s: events %d and %d: overlapping %v and %v windows [%v, %v] and [%v, %v]",
					s.Name, i, j, a.Kind, b.Kind, a.From, a.To, b.From, b.To)
			}
		}
	}
	// A second failover has no source left to fail: the promoted backup is
	// chosen at compile time, before the first failover rewires the swarm.
	failovers := 0
	for i, ev := range s.Events {
		if ev.Kind == SourceFailover {
			if failovers++; failovers > 1 {
				return fmt.Errorf("scenario %s: event %d: more than one source-failover", s.Name, i)
			}
		}
	}
	return nil
}

// windowsConflict reports whether two events toggle the same absolute state
// and therefore must not have overlapping windows. Country-targeted kinds
// conflict only when they hit the same country; Throttle and CountryThrottle
// share the link-scale state, so they conflict across kinds (a random-victim
// throttle may land on the throttled country's peers and its restore would
// end the country window early).
func windowsConflict(a, b Event) bool {
	windowed := func(k Kind) bool {
		switch k {
		case Partition, Throttle, TrackerOutage, RegionalChurn, CountryThrottle:
			return true
		}
		return false
	}
	if !windowed(a.Kind) || !windowed(b.Kind) {
		return false
	}
	linkScale := func(k Kind) bool { return k == Throttle || k == CountryThrottle }
	if a.Kind != b.Kind {
		return linkScale(a.Kind) && linkScale(b.Kind)
	}
	if a.Kind == RegionalChurn || a.Kind == CountryThrottle {
		return a.Country == b.Country
	}
	return true
}

func (ev Event) validate() error {
	if ev.From < 0 || ev.To > 1 || ev.From > ev.To {
		return fmt.Errorf("%v: bad window [%v, %v]", ev.Kind, ev.From, ev.To)
	}
	switch ev.Kind {
	case Arrivals:
		if ev.Peers > 1 {
			return fmt.Errorf("arrivals: pool share %v exceeds 1", ev.Peers)
		}
		if ev.MeanStay < 0 {
			return fmt.Errorf("arrivals: negative mean stay %v", ev.MeanStay)
		}
	case Departures:
		if ev.Fraction <= 0 || ev.Fraction > 1 {
			return fmt.Errorf("departures: fraction %v outside (0, 1]", ev.Fraction)
		}
	case Partition:
		if ev.Country == "" && ev.ASes <= 0 {
			return fmt.Errorf("partition: no target (set Country or ASes)")
		}
		if ev.From == ev.To {
			return fmt.Errorf("partition: zero-length window")
		}
	case Throttle:
		if err := throttleFactor(ev); err != nil {
			return err
		}
		if ev.Fraction <= 0 || ev.Fraction > 1 {
			return fmt.Errorf("throttle: fraction %v outside (0, 1]", ev.Fraction)
		}
	case TrackerOutage:
		if ev.From == ev.To {
			return fmt.Errorf("tracker-outage: zero-length window")
		}
	case SourceFailover:
		// From == To is legal: the backup takes over the instant the
		// source dies. Country, when set, restricts the backup choice and
		// is checked against the population at compile time.
	case RegionalChurn, CountryThrottle:
		if ev.Country == "" {
			return fmt.Errorf("%v: no country", ev.Kind)
		}
		if ev.Kind == CountryThrottle {
			if err := throttleFactor(ev); err != nil {
				return err
			}
		} else if ev.Factor <= 0 {
			return fmt.Errorf("%v: non-positive factor %v", ev.Kind, ev.Factor)
		}
		if ev.From == ev.To {
			return fmt.Errorf("%v: zero-length window", ev.Kind)
		}
	case Zap:
		if ev.Fraction <= 0 || ev.Fraction > 1 {
			return fmt.Errorf("zap: fraction %v outside (0, 1]", ev.Fraction)
		}
		if ev.MeanStay <= 0 {
			return fmt.Errorf("zap: non-positive mean away time %v", ev.MeanStay)
		}
	default:
		return fmt.Errorf("unknown event kind %d", int(ev.Kind))
	}
	return nil
}

// throttleFactor checks a link-scale event's factor: a throttle slows links,
// so the factor lies in (0, 1]. A larger one could lift a delivery rate past
// the 32 bits the overlay holds it in, and the run would fail partway.
func throttleFactor(ev Event) error {
	if ev.Factor <= 0 || ev.Factor > 1 {
		return fmt.Errorf("%v: factor %v outside (0, 1]", ev.Kind, ev.Factor)
	}
	return nil
}

// at converts a horizon fraction to an absolute offset.
func at(frac float64, horizon time.Duration) time.Duration {
	return time.Duration(frac * float64(horizon))
}
