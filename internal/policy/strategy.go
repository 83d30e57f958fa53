package policy

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ChunkRef describes one missing chunk to a scheduling strategy: its stream
// id, how many partners currently advertise it (the rarity signal), and
// whether it sits in the urgent head of the pull window (close to its
// playout deadline).
type ChunkRef struct {
	ID      int64
	Holders int
	Urgent  bool
}

// DefaultStrategy returns the strategy the shipped profiles use, registered
// as "urgent-random": the behaviour the emulator has always had.
func DefaultStrategy() Hybrid { return Hybrid{UrgentFrac: 1} }

// Hybrid is the chunk-scheduling strategy: it orders the missing chunks a
// scheduler round will request. The scheduler hands Order the candidate
// chunks of the pull window, in ascending id order, and issues requests in
// whatever order Order leaves them — until the in-flight budget runs out,
// so the front of the slice matters most.
//
// The strategy space is the one Mathieu & Perino study for epidemic live
// streaming: how a peer spends its request budget — on the newest useful
// data, on the rarest, or on the most imminent deadline — trades off
// diffusion speed against playout safety. Order:
//
//  1. An urgent head: up to ceil(UrgentFrac·len(refs)) chunks from the
//     urgent prefix keep absolute priority, oldest-first.
//  2. The tail is sorted by the score RarestWeight·Holders +
//     DeadlineBias·(ID−base), ascending, ties oldest-first — or shuffled
//     uniformly when both weights are zero (the diversification the
//     default uses).
//
// The registered names are members: {UrgentFrac:1} is urgent-random (the
// default), {DeadlineBias:1} deadline, {DeadlineBias:-1} latest-useful and
// {RarestWeight:1} rarest.
//
// AwareWeight is orthogonal to chunk order: it tells the scheduler to
// discount partners by their observed-loss EWMA (see LossPenalty), which
// only matters when the access layer's congestion model can actually drop
// transfers. Every registered name has it 0: the agnostic arm of an
// awareness ablation.
//
// Hybrids are named by a grammar the strategy registry parses:
// "hybrid:u=0.4,r=1,a=1" (see ParseHybrid); construct-by-literal and
// parse-by-name yield identical behaviour. The zero Hybrid is the member
// "hybrid": a pure uniform shuffle, not the default.
type Hybrid struct {
	// UrgentFrac ∈ [0,1] caps the absolute-priority urgent head as a
	// fraction of the candidate window.
	UrgentFrac float64
	// RarestWeight ≥ 0 weighs the holder count: higher chases rarer
	// chunks harder.
	RarestWeight float64
	// DeadlineBias weighs chunk age: positive requests older chunks first
	// (deadline-chasing), negative newer-first (latest-useful diffusion).
	DeadlineBias float64
	// AwareWeight ≥ 0 scales the scheduler's loss-based partner discount;
	// 0 keeps partner selection congestion-agnostic.
	AwareWeight float64
}

// Name renders the canonical grammar form: "hybrid" plus every non-zero
// parameter in u,r,d,a order. ParseHybrid(h.Name()) round-trips.
func (h Hybrid) Name() string {
	var b strings.Builder
	b.WriteString("hybrid")
	sep := byte(':')
	add := func(key byte, v float64) {
		if v == 0 {
			return
		}
		b.WriteByte(sep)
		sep = ','
		b.WriteByte(key)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	add('u', h.UrgentFrac)
	add('r', h.RarestWeight)
	add('d', h.DeadlineBias)
	add('a', h.AwareWeight)
	return b.String()
}

// NeedHolders reports whether Order reads ChunkRef.Holders; when false the
// scheduler skips the per-chunk availability count entirely.
func (h Hybrid) NeedHolders() bool { return h.RarestWeight != 0 }

// Order orders refs in place; see the type comment for the semantics. It is
// deterministic: identical refs and an identical RNG state yield an
// identical order and consume identical draws, independent of anything else
// — this is what keeps multi-worker sweeps byte-reproducible. It does not
// allocate; it runs once per scheduler tick per node.
func (h Hybrid) Order(rng *rand.Rand, refs []ChunkRef) {
	head := 0
	max := int(math.Ceil(h.UrgentFrac * float64(len(refs))))
	for head < len(refs) && head < max && refs[head].Urgent {
		head++
	}
	tail := refs[head:]
	if h.RarestWeight == 0 && h.DeadlineBias == 0 {
		rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		return
	}
	if len(tail) < 2 {
		return
	}
	// Score against the window base so the age term stays small and exact
	// in float64 whatever the absolute chunk ids are.
	r, d, base := h.RarestWeight, h.DeadlineBias, tail[0].ID
	slices.SortFunc(tail, func(a, b ChunkRef) int {
		sa := r*float64(a.Holders) + d*float64(a.ID-base)
		sb := r*float64(b.Holders) + d*float64(b.ID-base)
		if sa != sb {
			return cmp.Compare(sa, sb)
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// LossPenalty maps a partner's observed-loss EWMA (0..1) to the
// multiplicative request-weight factor a congestion-aware scheduler
// applies: (1−loss)^(2·aware), floored so even a fully lossy partner keeps
// a token weight and can be re-probed once its backoff expires. aware ≤ 0
// or loss ≤ 0 leave the weight untouched.
func LossPenalty(loss, aware float64) float64 {
	if aware <= 0 || loss <= 0 {
		return 1
	}
	keep := 1 - loss
	if keep < 0.05 {
		keep = 0.05
	}
	return math.Pow(keep, 2*aware)
}

// HybridGrammar documents the parameterized strategy names StrategyByName
// accepts alongside the registered names.
const HybridGrammar = "hybrid[:k=v,...] with keys " +
	"u (urgent fraction, 0..1), r (rarest weight, >=0), " +
	"d (deadline bias, +old-first / -new-first), " +
	"a (congestion awareness, >=0); omitted keys are 0, " +
	"e.g. \"hybrid:u=0.4,r=1,a=1\""

// ParseHybrid parses a hybrid family name — "hybrid" alone (the all-zero
// member: a pure uniform shuffle) or "hybrid:" followed by comma-separated
// key=value parameters per HybridGrammar. Unknown keys, duplicate keys,
// out-of-range or non-finite values are errors.
func ParseHybrid(name string) (Hybrid, error) {
	rest, ok := strings.CutPrefix(name, "hybrid")
	if !ok {
		return Hybrid{}, fmt.Errorf("policy: %q is not a hybrid strategy name", name)
	}
	var h Hybrid
	if rest == "" {
		return h, nil
	}
	if rest[0] != ':' {
		return Hybrid{}, fmt.Errorf("policy: bad hybrid name %q (want %s)", name, HybridGrammar)
	}
	var seen [4]bool
	for _, kv := range strings.Split(rest[1:], ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || key == "" || val == "" {
			return Hybrid{}, fmt.Errorf("policy: bad hybrid parameter %q in %q (want %s)", kv, name, HybridGrammar)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return Hybrid{}, fmt.Errorf("policy: bad hybrid value %q in %q", kv, name)
		}
		var slot *float64
		var idx int
		switch key {
		case "u":
			if f < 0 || f > 1 {
				return Hybrid{}, fmt.Errorf("policy: hybrid urgent fraction %v out of [0,1] in %q", f, name)
			}
			slot, idx = &h.UrgentFrac, 0
		case "r":
			if f < 0 {
				return Hybrid{}, fmt.Errorf("policy: negative hybrid rarest weight %v in %q", f, name)
			}
			slot, idx = &h.RarestWeight, 1
		case "d":
			slot, idx = &h.DeadlineBias, 2
		case "a":
			if f < 0 {
				return Hybrid{}, fmt.Errorf("policy: negative hybrid awareness %v in %q", f, name)
			}
			slot, idx = &h.AwareWeight, 3
		default:
			return Hybrid{}, fmt.Errorf("policy: unknown hybrid key %q in %q (want %s)", key, name, HybridGrammar)
		}
		if seen[idx] {
			return Hybrid{}, fmt.Errorf("policy: duplicate hybrid key %q in %q", key, name)
		}
		seen[idx] = true
		*slot = f
	}
	return h, nil
}

// strategyInfo pairs a registered strategy with its one-line description.
type strategyInfo struct {
	s    Hybrid
	desc string
}

// defaultStrategyName is the registered name of DefaultStrategy.
const defaultStrategyName = "urgent-random"

// strategies is the registry: each name is a member of the Hybrid family.
var strategies = map[string]strategyInfo{
	// CoolStreaming-style: a random tail diversifies availability instead of every peer chasing one piece.
	defaultStrategyName: {Hybrid{UrgentFrac: 1}, "urgent head oldest-first, rest of the window at random (default)"},
	// Every peer still misses the newest chunk, so serving capacity for it is maximal.
	"latest-useful": {Hybrid{DeadlineBias: -1}, "newest chunk first: fastest diffusion, most deadline risk"},
	// BitTorrent's policy on the live window: rare pieces do not die out when upload capacity is scarce.
	"rarest": {Hybrid{RarestWeight: 1}, "fewest-holders chunk first, ties oldest-first"},
	// Safest for the viewer, worst for the swarm: late chunks come when almost nobody needs them.
	"deadline": {Hybrid{DeadlineBias: 1}, "strictly oldest-first: chase every playout deadline"},
}

// StrategyNames lists the registered chunk strategies, default first, the
// rest alphabetically.
func StrategyNames() []string {
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		if name != defaultStrategyName {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return append([]string{defaultStrategyName}, names...)
}

// StrategyByName resolves a chunk strategy: "" selects the default, a
// registered name its Hybrid member, and any "hybrid..." name a parsed
// member of the family (see HybridGrammar).
func StrategyByName(name string) (Hybrid, error) {
	if name == "" {
		return DefaultStrategy(), nil
	}
	if info, ok := strategies[name]; ok {
		return info.s, nil
	}
	if strings.HasPrefix(name, "hybrid") {
		return ParseHybrid(name)
	}
	return Hybrid{}, fmt.Errorf("policy: unknown chunk strategy %q (valid: %v, or parameterized %s)",
		name, StrategyNames(), HybridGrammar)
}

// StrategyDescription returns the one-line description of a registered
// name, "" for any other.
func StrategyDescription(name string) string { return strategies[name].desc }
