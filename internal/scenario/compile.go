package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"napawine/internal/overlay"
	"napawine/internal/sim"
	"napawine/internal/stats"
	"napawine/internal/topology"
)

// Env is the wiring surface the experiment layer hands to Compile: the
// engine every event is scheduled on, the overlay network whose hooks the
// events drive, and the two node pools a scenario may manipulate. Probe
// nodes are deliberately absent — they are the measurement vantage points
// and, as in the real testbed, never churn.
type Env struct {
	Eng     *sim.Engine
	Net     *overlay.Network
	Horizon time.Duration

	// Background peers: already arrival-scheduled and churning.
	Background []*overlay.Node
	// Deferred pool: inactive until an Arrivals event claims them.
	Deferred []*overlay.Node
}

// Compile validates the spec and schedules every event onto env.Eng. It
// must be called before the engine runs (at virtual time zero). All
// randomness — compile-time arrival offsets and runtime victim selection —
// flows through the engine's seeded source, so the same seed and spec
// replay byte-identically.
func Compile(s *Spec, env Env) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if env.Eng == nil || env.Net == nil {
		return fmt.Errorf("scenario %s: nil engine or network", s.Name)
	}
	if env.Horizon <= 0 {
		return fmt.Errorf("scenario %s: non-positive horizon %v", s.Name, env.Horizon)
	}
	cursor := 0 // deferred-pool peers already claimed by earlier events
	// sessionEnd records the scheduled finite-session leave of every
	// arrivals peer, keyed by node. Zap rejoins consult it at runtime so a
	// zapped-away viewer whose session would have ended meanwhile stays
	// gone — without this, the session-end Leave no-ops on the zapped
	// (offline) node and the rejoin would resurrect it for good.
	sessionEnd := map[*overlay.Node]time.Duration{}
	for i, ev := range s.Events {
		var err error
		switch ev.Kind {
		case Arrivals:
			cursor, err = compileArrivals(ev, env, cursor, sessionEnd)
		case Departures:
			compileDepartures(ev, env)
		case Partition:
			err = compilePartition(ev, env)
		case Throttle:
			compileThrottle(ev, env)
		case TrackerOutage:
			env.Eng.Schedule(at(ev.From, env.Horizon), func() { env.Net.SetTrackerPaused(true) })
			env.Eng.Schedule(at(ev.To, env.Horizon), func() { env.Net.SetTrackerPaused(false) })
		case SourceFailover:
			err = compileSourceFailover(ev, env)
		case RegionalChurn:
			err = compileCountryWindow(ev, env, (*overlay.Node).SetChurnScale)
		case CountryThrottle:
			err = compileCountryWindow(ev, env, (*overlay.Node).SetLinkScale)
		case Zap:
			compileZap(ev, env, sessionEnd)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// shapeOffset draws one arrival position in [0, 1) under the event's shape.
func shapeOffset(rng *rand.Rand, shape Shape) float64 {
	switch shape {
	case ShapeBurst:
		// Exponentially decaying density over the window: inverse-CDF of
		// a rate-4 exponential truncated to [0, 1).
		u := rng.Float64()
		return -math.Log(1-u*(1-math.Exp(-4))) / 4
	case ShapeWave:
		// Half-sine hump peaking mid-window, by rejection sampling.
		for {
			x := rng.Float64()
			if rng.Float64() <= math.Sin(math.Pi*x) {
				return x
			}
		}
	default:
		return rng.Float64()
	}
}

// expStay draws an exponential session length with the given mean, capped
// at 6× the mean so a single draw cannot dominate the run, then floored at
// one second. The cap applies before the floor: for sub-second means
// (short -dur smoke runs) the 6×-mean cap would otherwise clamp the draw
// below the documented one-second floor.
func expStay(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d > 6*mean {
		d = 6 * mean
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

func compileArrivals(ev Event, env Env, cursor int, sessionEnd map[*overlay.Node]time.Duration) (int, error) {
	remaining := len(env.Deferred) - cursor
	if remaining <= 0 {
		return cursor, fmt.Errorf("arrivals: deferred pool empty or exhausted (%d peers, %d already claimed) — set ExtraPeerFactor or shrink earlier arrivals",
			len(env.Deferred), cursor)
	}
	n := remaining
	if ev.Peers > 0 {
		n = int(ev.Peers * float64(len(env.Deferred)))
		if n > remaining {
			n = remaining
		}
		if n <= 0 {
			return cursor, fmt.Errorf("arrivals: pool share %v of %d deferred peers activates no one",
				ev.Peers, len(env.Deferred))
		}
	}
	rng := env.Eng.Rand()
	from := at(ev.From, env.Horizon)
	width := at(ev.To, env.Horizon) - from
	for _, nd := range env.Deferred[cursor : cursor+n] {
		nd := nd
		join := from + time.Duration(shapeOffset(rng, ev.Shape)*float64(width))
		env.Eng.Schedule(join, nd.Join)
		if ev.MeanStay > 0 {
			stay := expStay(rng, time.Duration(ev.MeanStay*float64(env.Horizon)))
			if leave := join + stay; leave < env.Horizon {
				env.Eng.Schedule(leave, nd.Leave)
				sessionEnd[nd] = leave
			}
		}
	}
	return cursor + n, nil
}

// eligible is every node a population event may touch: the background pool
// plus the deferred pool, in stable construction order.
func eligible(env Env) []*overlay.Node {
	out := make([]*overlay.Node, 0, len(env.Background)+len(env.Deferred))
	out = append(out, env.Background...)
	out = append(out, env.Deferred...)
	return out
}

// onlineVictims picks a Fraction of the currently online eligible peers via
// the engine RNG — the runtime victim-selection step shared by Departures
// and Zap. Selection happens at event time, over whoever is actually online
// then; deterministic because the engine is single-threaded.
func onlineVictims(env Env, rng *rand.Rand, fraction float64) []*overlay.Node {
	var online []*overlay.Node
	for _, nd := range eligible(env) {
		if nd.Online() {
			online = append(online, nd)
		}
	}
	rng.Shuffle(len(online), func(i, j int) { online[i], online[j] = online[j], online[i] })
	return online[:int(fraction*float64(len(online)))]
}

// victimLag spreads one victim's action uniformly over the event window.
func victimLag(rng *rand.Rand, width time.Duration) time.Duration {
	if width <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(width)))
}

func compileDepartures(ev Event, env Env) {
	start := at(ev.From, env.Horizon)
	width := at(ev.To, env.Horizon) - start
	env.Eng.Schedule(start, func() {
		rng := env.Eng.Rand()
		for _, nd := range onlineVictims(env, rng, ev.Fraction) {
			// Retire, not Leave: the program ended for these viewers, so
			// their own churn cycles must not quietly resurrect them and
			// erase the exodus.
			env.Eng.Schedule(victimLag(rng, width), nd.Retire)
		}
	})
}

// partitionTargets resolves the event's AS selector against the non-probe
// population. Ranking for the "N most-populated background ASes" selector
// counts only the base background population — the deferred pool hasn't
// arrived and must not skew which ASes the incident hits — but the blackout
// itself takes every non-probe peer of the chosen ASes (or country) off the
// network, deferred arrivals included. Selection is compile-time and purely
// structural (host placement), so it consumes no randomness.
func partitionTargets(ev Event, env Env) []*overlay.Node {
	pool := eligible(env)
	if ev.Country != "" {
		return countryPeers(env, ev.Country)
	}
	count := map[topology.ASN]int{}
	for _, nd := range env.Background {
		count[nd.Host.AS]++
	}
	asns := stats.RankByCount(count)
	if ev.ASes < len(asns) {
		asns = asns[:ev.ASes]
	}
	hit := make(map[topology.ASN]bool, len(asns))
	for _, asn := range asns {
		hit[asn] = true
	}
	var out []*overlay.Node
	for _, nd := range pool {
		if hit[nd.Host.AS] {
			out = append(out, nd)
		}
	}
	return out
}

func compilePartition(ev Event, env Env) error {
	targets := partitionTargets(ev, env)
	if len(targets) == 0 {
		return fmt.Errorf("partition: selector matches no peers (country %q, ASes %d)", ev.Country, ev.ASes)
	}
	rejoin := make([]bool, len(targets))
	env.Eng.Schedule(at(ev.From, env.Horizon), func() {
		for i, nd := range targets {
			rejoin[i] = nd.Online()
			nd.Block()
		}
	})
	env.Eng.Schedule(at(ev.To, env.Horizon), func() {
		for i, nd := range targets {
			nd.Unblock()
			if rejoin[i] {
				// Connectivity back means the client reconnects at once —
				// the synchronized rejoin wave a real outage recovery shows.
				nd.Join()
			}
		}
	})
	return nil
}

func compileThrottle(ev Event, env Env) {
	pool := eligible(env)
	// Victim selection at compile time via the engine RNG: a Fisher–Yates
	// prefix of the stable pool order.
	rng := env.Eng.Rand()
	idx := rng.Perm(len(pool))
	want := int(ev.Fraction * float64(len(pool)))
	victims := make([]*overlay.Node, 0, want)
	for _, i := range idx[:want] {
		victims = append(victims, pool[i])
	}
	env.Eng.Schedule(at(ev.From, env.Horizon), func() {
		for _, nd := range victims {
			nd.SetLinkScale(ev.Factor)
		}
	})
	env.Eng.Schedule(at(ev.To, env.Horizon), func() {
		for _, nd := range victims {
			nd.SetLinkScale(1)
		}
	})
}

// countryPeers filters the eligible population by country, in stable
// construction order. Purely structural: consumes no randomness.
func countryPeers(env Env, cc topology.CC) []*overlay.Node {
	var out []*overlay.Node
	for _, nd := range eligible(env) {
		if nd.Host.Country == cc {
			out = append(out, nd)
		}
	}
	return out
}

// compileSourceFailover retires the source at From and promotes the backup
// at To. The backup is designated at compile time, structurally: the first
// (creation-order) high-bandwidth background peer — of ev.Country when set
// — falling back to the first background peer of the country. Compile-time
// designation keeps the promotion deterministic and lets a bad selector
// fail loudly before the run starts.
func compileSourceFailover(ev Event, env Env) error {
	var backup *overlay.Node
	for _, nd := range env.Background {
		if ev.Country != "" && nd.Host.Country != ev.Country {
			continue
		}
		if nd.Link.HighBandwidth() {
			backup = nd
			break
		}
		if backup == nil {
			backup = nd
		}
	}
	if backup == nil {
		return fmt.Errorf("source-failover: no backup candidate (country %q, %d background peers)",
			ev.Country, len(env.Background))
	}
	env.Eng.Schedule(at(ev.From, env.Horizon), env.Net.Source().Retire)
	env.Eng.Schedule(at(ev.To, env.Horizon), func() { env.Net.PromoteSource(backup) })
	return nil
}

// compileCountryWindow is the shared scaffold of the country-windowed
// incident kinds: apply `set` with the event's Factor to every one of the
// country's peers at From, restore with factor 1 at To. RegionalChurn
// passes SetChurnScale (the region flaps Factor× as often, correlated
// instead of independent); CountryThrottle passes SetLinkScale (every link
// of the country at Factor × capacity — Partition's structural targeting
// with Throttle's link action).
func compileCountryWindow(ev Event, env Env, set func(*overlay.Node, float64)) error {
	targets := countryPeers(env, ev.Country)
	if len(targets) == 0 {
		return fmt.Errorf("%v: country %q matches no peers", ev.Kind, ev.Country)
	}
	env.Eng.Schedule(at(ev.From, env.Horizon), func() {
		for _, nd := range targets {
			set(nd, ev.Factor)
		}
	})
	env.Eng.Schedule(at(ev.To, env.Horizon), func() {
		for _, nd := range targets {
			set(nd, 1)
		}
	})
	return nil
}

// compileZap scripts channel-zapping: at the event instant a Fraction of
// the online population is chosen; each victim leaves at a random instant
// in the window and rejoins after an exponential away time with mean
// ev.MeanStay × horizon. Victims Leave, not Retire — a zapper surfs back,
// unless its scheduled finite session would have ended while it was away,
// in which case it stays gone (the session-end Leave no-ops on an offline
// node, and a rejoin would otherwise resurrect the viewer for good).
func compileZap(ev Event, env Env, sessionEnd map[*overlay.Node]time.Duration) {
	start := at(ev.From, env.Horizon)
	width := at(ev.To, env.Horizon) - start
	meanAway := time.Duration(ev.MeanStay * float64(env.Horizon))
	env.Eng.Schedule(start, func() {
		// Every lag and away time is drawn here, in one event, so the draw
		// order cannot interleave with other runtime randomness.
		rng := env.Eng.Rand()
		for _, nd := range onlineVictims(env, rng, ev.Fraction) {
			nd := nd
			lag := victimLag(rng, width)
			away := expStay(rng, meanAway)
			env.Eng.Schedule(lag, nd.Leave)
			if end, ok := sessionEnd[nd]; ok && end <= start+lag+away {
				continue // the program would be over before the surf back
			}
			env.Eng.Schedule(lag+away, nd.Join)
		}
	})
}
