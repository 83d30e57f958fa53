// Package analysis performs the paper's offline trace inference: it reduces
// a probe's packet-level capture to per-peer aggregates and derives, from
// passively observable fields only, everything the core framework needs —
// video byte ledgers (contributor heuristic of [14]), minimum inter-packet
// gaps inside video trains (the §III-B packet-pair bandwidth estimator) and
// router-hop counts from received TTLs.
//
// The ground-truth Kind annotation present in records is deliberately not
// consulted: video packets are recognized by size, exactly as a real trace
// analysis must. Tests validate the size heuristic against the annotation.
package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"time"

	"napawine/internal/core"
	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/topology"
	"napawine/internal/units"
)

// Config tunes the passive heuristics.
type Config struct {
	// VideoSizeFloor: packets at least this large are treated as video
	// payload. Control traffic (buffer maps, requests, keepalives,
	// bounded peer-exchange lists) stays below it; chunk-train packets
	// are full MTU except the final fragment.
	VideoSizeFloor units.ByteSize
	// FullPacket is the packet-pair probe size: IPG is measured between
	// consecutive inbound packets of at least this size, so the gap
	// equals a full packet's serialization time at the bottleneck.
	FullPacket units.ByteSize
}

// DefaultConfig matches the paper's setup (1250-byte packets, 1 ms ⇔
// 10 Mbit/s calibration).
func DefaultConfig() Config {
	return Config{VideoSizeFloor: 1000, FullPacket: 1250}
}

// PeerAggregate accumulates one remote peer's traffic as seen at the probe.
type PeerAggregate struct {
	VideoUp, VideoDown int64 // video payload bytes by direction
	TotalUp, TotalDown int64 // all bytes by direction

	// MinIPG is the packet-pair estimate; zero until two consecutive
	// full-size inbound video packets have been seen.
	MinIPG time.Duration
	// MaxTTL over received packets; hop count = 128 − MaxTTL (the
	// largest TTL corresponds to the fewest hops and is the most direct
	// observation of the path).
	MaxTTL   uint8
	Received bool

	// hasFull reports that lastFull holds the arrival of the last
	// full-size inbound video packet.
	hasFull  bool
	lastFull sim.Time
}

// Hops reports the inferred hop count, −1 when nothing was received.
func (p *PeerAggregate) Hops() int {
	if !p.Received {
		return -1
	}
	return packet.InitialTTL - int(p.MaxTTL)
}

// Aggregator consumes a probe's records and maintains per-peer aggregates.
// It implements sniffer.Consumer, so it can run live during a simulation or
// be fed from a stored trace with identical results.
//
// The aggregates form a table with no pointer in it, in the order the
// remotes were first seen: captures and the trace format are IPv4-only, so
// a remote is keyed by its address as 32 bits.
type Aggregator struct {
	probe netip.Addr
	cfg   Config
	// index maps a remote's key to its row of remotes and peers.
	index   map[uint32]int32
	remotes []uint32
	peers   []PeerAggregate
	count   uint64
}

// New builds an aggregator for the given IPv4 probe address.
func New(probe netip.Addr, cfg Config) *Aggregator {
	if cfg.VideoSizeFloor <= 0 || cfg.FullPacket < cfg.VideoSizeFloor {
		panic(fmt.Sprintf("analysis: bad config %+v", cfg))
	}
	if !probe.Is4() {
		panic(fmt.Sprintf("analysis: probe address must be IPv4, got %v", probe))
	}
	return &Aggregator{probe: probe, cfg: cfg, index: make(map[uint32]int32)}
}

// key is a remote's table key: its IPv4 address, big-endian, so keys order
// as addresses do.
func key(addr netip.Addr) uint32 {
	b := addr.As4()
	return binary.BigEndian.Uint32(b[:])
}

// addrOf inverts key.
func addrOf(k uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], k)
	return netip.AddrFrom4(b)
}

// Records reports how many records were consumed.
func (a *Aggregator) Records() uint64 { return a.count }

// PeerCount reports how many distinct remote peers were observed — the
// paper's "all peers" population for this probe.
func (a *Aggregator) PeerCount() int { return len(a.peers) }

// Peer returns the aggregate for one remote address, nil when never seen.
// The pointer is valid until the next Consume, which may move the table.
func (a *Aggregator) Peer(remote netip.Addr) *PeerAggregate {
	if !remote.Is4() {
		return nil
	}
	i, ok := a.index[key(remote)]
	if !ok {
		return nil
	}
	return &a.peers[i]
}

// Bytes reports the bytes of every consumed record, inbound (toward the
// probe) and outbound: the sums of the aggregates' TotalDown and TotalUp.
func (a *Aggregator) Bytes() (in, out int64) {
	for i := range a.peers {
		in += a.peers[i].TotalDown
		out += a.peers[i].TotalUp
	}
	return in, out
}

// PeerAddrs returns every observed remote address, sorted by descending
// total video bytes (then by address). Tools use this to list top
// contributors.
func (a *Aggregator) PeerAddrs() []netip.Addr {
	rows := make([]int, len(a.peers))
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(i, j int) int {
		vi := a.peers[i].VideoDown + a.peers[i].VideoUp
		vj := a.peers[j].VideoDown + a.peers[j].VideoUp
		if c := cmp.Compare(vj, vi); c != 0 {
			return c
		}
		return cmp.Compare(a.remotes[i], a.remotes[j])
	})
	out := make([]netip.Addr, len(rows))
	for n, i := range rows {
		out[n] = addrOf(a.remotes[i])
	}
	return out
}

// Consume folds one record into the aggregates. A record whose remote end
// is not IPv4 cannot come from a capture or a trace, and panics.
func (a *Aggregator) Consume(r packet.Record) {
	remote, inbound := sniffer.Remote(r, a.probe)
	if !remote.Is4() {
		panic(fmt.Sprintf("analysis: record %+v has a non-IPv4 remote", r))
	}
	k := key(remote)
	i, ok := a.index[k]
	if !ok {
		i = int32(len(a.peers))
		a.index[k] = i
		a.remotes = append(a.remotes, k)
		a.peers = append(a.peers, PeerAggregate{})
	}
	agg := &a.peers[i]
	a.count++
	size := int64(r.Size)
	isVideo := r.Size >= a.cfg.VideoSizeFloor
	if inbound {
		agg.TotalDown += size
		agg.Received = true
		if r.TTL > agg.MaxTTL {
			agg.MaxTTL = r.TTL
		}
		if isVideo {
			agg.VideoDown += size
			if r.Size >= a.cfg.FullPacket {
				if agg.hasFull {
					gap := r.TS.Sub(agg.lastFull)
					if gap > 0 && (agg.MinIPG == 0 || gap < agg.MinIPG) {
						agg.MinIPG = gap
					}
				}
				agg.hasFull = true
				agg.lastFull = r.TS
			}
		}
	} else {
		agg.TotalUp += size
		if isVideo {
			agg.VideoUp += size
		}
	}
}

// Locator resolves an address to its location facts — in production the
// registry built into the synthetic topology, in the real world a
// whois/GeoIP database.
type Locator interface {
	Locate(netip.Addr) (topology.Host, bool)
}

// AppendObservations appends the aggregates to dst as framework
// observations, resolving locality against loc and marking probe-set
// membership from probeSet, and returns the extended slice. Peers the
// locator cannot place are skipped and counted in the second return value
// (real traces always contain a few unmappable addresses; silently mixing
// them into a partition would bias it). Observations come in the order the
// remotes were first seen; appending into a slice with room for them
// allocates nothing.
func (a *Aggregator) AppendObservations(dst []core.Observation, loc Locator, probeSet map[netip.Addr]bool) ([]core.Observation, int) {
	probeHost, ok := loc.Locate(a.probe)
	if !ok {
		// A probe outside the registry is a setup bug, not data noise.
		panic(fmt.Sprintf("analysis: probe %v not in registry", a.probe))
	}
	probe := a.probe.As4()
	unlocated := 0
	for i := range a.peers {
		agg, remote := &a.peers[i], addrOf(a.remotes[i])
		h, ok := loc.Locate(remote)
		if !ok {
			unlocated++
			continue
		}
		dst = append(dst, core.Observation{
			Probe:       probe,
			Peer:        remote.As4(),
			VideoUp:     agg.VideoUp,
			VideoDown:   agg.VideoDown,
			TotalUp:     agg.TotalUp,
			TotalDown:   agg.TotalDown,
			MinIPG:      agg.MinIPG,
			Hops:        int32(agg.Hops()),
			SameAS:      h.AS == probeHost.AS,
			SameCC:      h.Country == probeHost.Country,
			SameSubnet:  h.Subnet == probeHost.Subnet,
			PeerIsProbe: probeSet[remote],
		})
	}
	return dst, unlocated
}

// FromTrace replays a stored binary trace through a fresh aggregator —
// the paper's actual workflow (capture during the experiment, analyze
// offline). The trace's own header determines the probe address.
func FromTrace(r *packet.Reader, cfg Config) (*Aggregator, error) {
	a := New(r.Probe(), cfg)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return a, nil
		}
		if err != nil {
			return nil, err
		}
		a.Consume(rec)
	}
}
