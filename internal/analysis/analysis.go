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
	"math"
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

// PeerAggregate is one remote peer's traffic as seen at the probe, as Peer
// assembles it from the table.
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
}

// Hops reports the inferred hop count, −1 when nothing was received.
func (p PeerAggregate) Hops() int {
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
// a remote is keyed by its address as 32 bits, and each row carries its key.
// A probe sees thousands of remotes but exchanges video with few of them, so
// every remote has a 24-byte row of what all traffic updates, and a remote
// gets a 32-byte video row beside it on its first video byte. Both kinds
// live in fixed blocks of blockRows, allocated as they fill: the table never
// grows by copying, and a row never moves once made.
type Aggregator struct {
	probe netip.Addr
	cfg   Config
	// index maps a remote's key to its row (see row).
	index  map[uint32]int32
	blocks []*[blockRows]peerRow
	// videoBlocks hold the video rows, videoRows of them in use.
	videoBlocks []*[blockRows]videoRow
	videoRows   int
	count       uint64
}

// peerRow is what the table keeps for every remote.
type peerRow struct {
	key  uint32 // the remote (see key)
	meta uint32 // MaxTTL, received flag, video row link (see metaTTL)
	up   int64  // TotalUp
	down int64  // TotalDown
}

// The bits of peerRow.meta: MaxTTL in the low 8, the received flag above
// them, and in the rest 1 + the index of the remote's video row, 0 until its
// first video byte.
const (
	metaTTL      = 1<<8 - 1
	metaReceived = 1 << 8
	metaLinkBits = 9
	// maxVideoRows is the most video rows a probe's table links: their
	// numbers 1 to maxVideoRows fill the link's 23 bits.
	maxVideoRows = 1<<(32-metaLinkBits) - 1
)

// videoRow is what the table keeps for a remote that has sent or received
// video.
type videoRow struct {
	up, down int64 // VideoUp, VideoDown
	minIPG   time.Duration
	// full is the arrival of the last full-size inbound video packet, or
	// noFull before the first. No record is stamped there: captures and
	// traces never go below 0.
	full sim.Time
}

// noFull marks a video row that has seen no full-size inbound packet.
const noFull = sim.Time(math.MinInt64)

// blockRows is the rows in one block: 64 rows of 24 bytes, and 64 video rows
// of 32, each fill a size class.
const blockRows = 64

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
func (a *Aggregator) PeerCount() int { return len(a.index) }

// Blocks reports how many blocks the table has allocated, of rows and of
// video rows.
func (a *Aggregator) Blocks() int { return len(a.blocks) + len(a.videoBlocks) }

// row returns row i.
func (a *Aggregator) row(i int) *peerRow {
	return &a.blocks[uint(i)/blockRows][uint(i)%blockRows]
}

// video returns r's video row, nil before its first video byte.
func (a *Aggregator) video(r *peerRow) *videoRow {
	link := uint(r.meta >> metaLinkBits)
	if link == 0 {
		return nil
	}
	return &a.videoBlocks[(link-1)/blockRows][(link-1)%blockRows]
}

// addVideo gives r a video row and returns it. A table that would link more
// than maxVideoRows panics, naming the probe, rather than wrap the link.
func (a *Aggregator) addVideo(r *peerRow) *videoRow {
	j := a.videoRows
	if j == maxVideoRows {
		panic(fmt.Sprintf("analysis: probe %v exchanged video with more than %d remotes, the most its table links", a.probe, maxVideoRows))
	}
	if j%blockRows == 0 {
		a.videoBlocks = append(a.videoBlocks, new([blockRows]videoRow))
	}
	a.videoRows++
	r.meta |= uint32(j+1) << metaLinkBits
	v := a.video(r)
	v.full = noFull
	return v
}

// aggregate assembles r's PeerAggregate.
func (a *Aggregator) aggregate(r *peerRow) PeerAggregate {
	p := PeerAggregate{
		TotalUp: r.up, TotalDown: r.down,
		MaxTTL: uint8(r.meta & metaTTL), Received: r.meta&metaReceived != 0,
	}
	if v := a.video(r); v != nil {
		p.VideoUp, p.VideoDown, p.MinIPG = v.up, v.down, v.minIPG
	}
	return p
}

// Peer returns the aggregate for one remote address, and false when the
// remote was never seen.
func (a *Aggregator) Peer(remote netip.Addr) (PeerAggregate, bool) {
	if !remote.Is4() {
		return PeerAggregate{}, false
	}
	i, ok := a.index[key(remote)]
	if !ok {
		return PeerAggregate{}, false
	}
	return a.aggregate(a.row(int(i))), true
}

// Bytes reports the bytes of every consumed record, inbound (toward the
// probe) and outbound: the sums of the aggregates' TotalDown and TotalUp.
func (a *Aggregator) Bytes() (in, out int64) {
	for i := range a.PeerCount() {
		in += a.row(i).down
		out += a.row(i).up
	}
	return in, out
}

// PeerAddrs returns every observed remote address, sorted by descending
// total video bytes (then by address). Tools use this to list top
// contributors.
func (a *Aggregator) PeerAddrs() []netip.Addr {
	type ranked struct {
		video int64
		key   uint32
	}
	rows := make([]ranked, a.PeerCount())
	for i := range rows {
		r := a.row(i)
		rows[i].key = r.key
		if v := a.video(r); v != nil {
			rows[i].video = v.up + v.down
		}
	}
	slices.SortFunc(rows, func(p, q ranked) int {
		if c := cmp.Compare(q.video, p.video); c != 0 {
			return c
		}
		return cmp.Compare(p.key, q.key)
	})
	out := make([]netip.Addr, len(rows))
	for n, p := range rows {
		out[n] = addrOf(p.key)
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
		i = int32(len(a.index))
		if i%blockRows == 0 {
			a.blocks = append(a.blocks, new([blockRows]peerRow))
		}
		a.index[k] = i
		a.row(int(i)).key = k
	}
	p := a.row(int(i))
	a.count++
	size := int64(r.Size)
	var v *videoRow
	if r.Size >= a.cfg.VideoSizeFloor {
		if v = a.video(p); v == nil {
			v = a.addVideo(p)
		}
	}
	if !inbound {
		p.up += size
		if v != nil {
			v.up += size
		}
		return
	}
	p.down += size
	p.meta |= metaReceived
	if ttl := uint32(r.TTL); ttl > p.meta&metaTTL {
		p.meta = p.meta&^metaTTL | ttl
	}
	if v == nil {
		return
	}
	v.down += size
	if r.Size < a.cfg.FullPacket {
		return
	}
	if v.full != noFull {
		gap := r.TS.Sub(v.full)
		if gap > 0 && (v.minIPG == 0 || gap < v.minIPG) {
			v.minIPG = gap
		}
	}
	v.full = r.TS
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
	for i := range a.PeerCount() {
		r := a.row(i)
		remote := addrOf(r.key)
		h, ok := loc.Locate(remote)
		if !ok {
			unlocated++
			continue
		}
		agg := a.aggregate(r)
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
