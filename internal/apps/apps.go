// Package apps defines the three application profiles under study —
// PPLive, SopCast and TVAnts — as parameterizations of the generic
// mesh-pull engine in internal/overlay.
//
// The knob settings encode the behaviours the paper measures (and prior
// measurement work reports) for each client:
//
//   - PPLive   — enormous contact volume (hundreds of times more peers
//     observed than actually contribute), heavy signaling, large partner
//     sets with fast churn, strong bandwidth preference, and an AS
//     preference that acts at *chunk-scheduling* time only: discovery is
//     location-blind, so few same-AS peers are found, but those found are
//     used hard (Table IV: B′/P′ ≈ 10 on the AS row).
//   - SopCast  — moderate contact volume, bandwidth preference only;
//     completely location-blind (Table IV: AS row B′ ≈ P′).
//   - TVAnts   — small, stable peer set, bandwidth preference plus AS
//     awareness in *discovery* (same-AS peers preferentially adopted) and
//     moderately in scheduling (Table IV: highest P′ on the AS row, B′/P′
//     ≈ 2; Figure 2: intra/inter ratio R ≈ 1.9).
//
// None of the profiles weighs hop count, country (beyond the AS echo) or
// subnet explicitly — matching the paper's negative findings; tests assert
// that the measured NET/CC/HOP preferences are echoes, not causes.
package apps

import (
	"fmt"
	"time"

	"napawine/internal/overlay"
	"napawine/internal/policy"
	"napawine/internal/units"
)

// StreamRate is the nominal channel rate used throughout the experiments
// (§II: CCTV-1 at 384 kbit/s, Windows Media 9).
const StreamRate = 384 * units.Kbps

// bwRequest is the bandwidth component every client shares, with the
// client's AS factor: measured burst goodput with quadratic sharpening. The
// floor keeps unprobed peers selectable without privileging them over
// measured ones; the 40 Mbit/s cap reflects that past a few dozen Mbit/s
// extra capacity cannot make a chunk arrive sooner, so rate estimates above
// it carry no extra signal.
func bwRequest(as float64) policy.Bias {
	return policy.Bias{
		Ref: StreamRate, Alpha: 2, Floor: StreamRate, Cap: 40 * units.Mbps, AS: as,
	}
}

// bwRetain values partners for churn decisions.
func bwRetain(as float64) policy.Bias {
	return policy.Bias{
		Ref: StreamRate, Alpha: 1, Floor: StreamRate / 2, Cap: 40 * units.Mbps, AS: as,
	}
}

// PPLive returns the PPLive-like profile.
func PPLive() *overlay.Profile {
	return &overlay.Profile{
		Name:          "PPLive",
		PartnerTarget: 24,
		MaxPartners:   40,
		DropInterval:  8 * time.Second,

		ContactInterval: 250 * time.Millisecond,
		NeighborListMax: 600,

		// PPLive is the signaling-heavy client: buffer maps go out every
		// second, which also keeps partner adverts fresh enough for the
		// scheduler's AS weighting to see same-AS holders in time.
		SignalingInterval: 1 * time.Second,
		KeepaliveFanout:   6,

		ScheduleInterval: 500 * time.Millisecond,
		PullDelay:        6,
		MaxInflight:      6,
		BestFill:         3,

		ChunkStrategy:   policy.DefaultStrategy(),
		DiscoveryWeight: policy.Bias{},
		RequestWeight:   bwRequest(30),
		RetainWeight:    bwRetain(8),
	}
}

// SopCast returns the SopCast-like profile.
func SopCast() *overlay.Profile {
	return &overlay.Profile{
		Name:          "SopCast",
		PartnerTarget: 14,
		MaxPartners:   24,
		DropInterval:  12 * time.Second,

		ContactInterval: 2500 * time.Millisecond,
		NeighborListMax: 200,

		SignalingInterval: 2 * time.Second,
		KeepaliveFanout:   2,

		ScheduleInterval: 500 * time.Millisecond,
		PullDelay:        4,
		MaxInflight:      5,
		BestFill:         2,

		ChunkStrategy:   policy.DefaultStrategy(),
		DiscoveryWeight: policy.Bias{},
		RequestWeight:   bwRequest(0),
		RetainWeight:    bwRetain(0),
	}
}

// TVAnts returns the TVAnts-like profile.
func TVAnts() *overlay.Profile {
	return &overlay.Profile{
		Name:          "TVAnts",
		PartnerTarget: 10,
		MaxPartners:   16,
		DropInterval:  25 * time.Second,

		ContactInterval: 8 * time.Second,
		NeighborListMax: 80,

		SignalingInterval: 2 * time.Second,
		KeepaliveFanout:   1,

		ScheduleInterval: 500 * time.Millisecond,
		PullDelay:        4,
		MaxInflight:      5,
		BestFill:         2,

		ChunkStrategy:   policy.DefaultStrategy(),
		DiscoveryWeight: policy.Bias{AS: 15},
		RequestWeight:   bwRequest(4),
		RetainWeight:    bwRetain(4),
	}
}

// ByName resolves an application name (case-sensitive, as printed in the
// paper) to its profile factory.
func ByName(name string) (*overlay.Profile, error) {
	switch name {
	case "PPLive":
		return PPLive(), nil
	case "SopCast":
		return SopCast(), nil
	case "TVAnts":
		return TVAnts(), nil
	}
	return nil, fmt.Errorf("apps: unknown application %q (want PPLive, SopCast or TVAnts)", name)
}

// Variant derives a profile from base with one awareness knob replaced.
// It is the building block of the ablation experiments: e.g. a TVAnts
// variant with AS-blind discovery isolates how much of the AS preference
// comes from discovery versus scheduling.
func Variant(base *overlay.Profile, name string, mutate func(*overlay.Profile)) *overlay.Profile {
	cp := *base
	cp.Name = name
	mutate(&cp)
	return &cp
}
