// Package access models peer access links: asymmetric capacity, NAT and
// firewall flags, FIFO serialization of transfers, and — critically for the
// paper's BW metric — packet-train timing whose inter-packet gaps reflect
// the path bottleneck.
//
// §III-B of the paper infers a peer's access class from the minimum
// inter-packet gap (IPG) inside video-chunk packet trains: chunks are sent
// as bursts of ~1250-byte packets, so consecutive arrivals act as packet
// pairs and their spacing equals the serialization time at the path
// bottleneck (1 ms ⇔ 10 Mbit/s). Train reproduces exactly that observable.
package access

import (
	"fmt"
	"math/rand"
	"time"

	"napawine/internal/sim"
	"napawine/internal/units"
)

// Link describes one peer's access link.
type Link struct {
	Spec     units.AccessSpec
	NAT      bool // behind a NAT: no unsolicited inbound
	Firewall bool // behind a firewall: no inbound at all
}

// HighBandwidth reports whether the peer falls in the paper's preferred BW
// partition as ground truth: an uplink above 10 Mbit/s, the capacity whose
// 1250-byte serialization time equals the 1 ms IPG threshold. (The analysis
// layer must *infer* this from traces; this accessor is for world building
// and for validating the inference.)
func (l Link) HighBandwidth() bool { return l.Spec.Up > 10*units.Mbps }

// AcceptsFrom reports whether a connection initiated by from can be
// established toward l. Firewalled hosts accept nothing inbound; NATted
// hosts accept inbound only from publicly reachable initiators that they
// could also reach back (hole punching between two NATted peers is out of
// scope, as it was for the 2008-era clients).
func (l Link) AcceptsFrom(from Link) bool {
	if l.Firewall {
		return false
	}
	if l.NAT && (from.NAT || from.Firewall) {
		return false
	}
	return true
}

// Reachable reports whether at least one of the two peers can initiate a
// usable connection to the other.
func Reachable(a, b Link) bool {
	return a.AcceptsFrom(b) || b.AcceptsFrom(a)
}

// CongestionModel configures the bounded-queue behaviour of ports. The zero
// value — unbounded queue, no loss — is the historical model and leaves the
// event stream byte-identical to builds without the knob. The one loss
// discipline is tail drop: a transfer arriving at a full queue is discarded
// outright, the way a FIFO router queue drops the tail of a burst.
type CongestionModel struct {
	// QueueDepth bounds how many transfers a port queues: a TryReserve
	// arriving with this many reservations outstanding is tail-dropped.
	// 0 keeps the unbounded FIFO.
	QueueDepth int
}

// Enabled reports whether the model bounds queues at all.
func (m CongestionModel) Enabled() bool { return m.QueueDepth > 0 }

// Validate rejects a negative depth.
func (m CongestionModel) Validate() error {
	if m.QueueDepth < 0 {
		return fmt.Errorf("access: negative queue depth %d", m.QueueDepth)
	}
	return nil
}

// Port serializes transfers over one direction of an access link in FIFO
// order. It is the mechanism that makes high-capacity peers complete chunk
// uploads sooner and therefore get re-selected — the emergent side of the
// BW preference every application shows.
//
// A port may carry a bounded queue (SetQueueLimit): TryReserve then
// tail-drops transfers that would exceed the bound; the caller that is
// refused does the counting (overlay.Ledger.DropsTotal). The default limit
// of 0 keeps the historical unbounded FIFO.
type Port struct {
	rate      units.BitRate
	busyUntil sim.Time
	// queued counts transfers currently reserved but not yet finished,
	// for observability and back-pressure decisions in the overlay.
	queued int
	// limit bounds queued when positive; 0 = unbounded.
	limit int
}

// NewPort builds a port of the given rate. A non-positive rate panics: a
// zero-capacity access link would deadlock the swarm invisibly.
func NewPort(rate units.BitRate) *Port {
	if rate <= 0 {
		panic(fmt.Sprintf("access: non-positive port rate %v", rate))
	}
	return &Port{rate: rate}
}

// Rate reports the port's capacity.
func (p *Port) Rate() units.BitRate { return p.rate }

// SetRate changes the port's capacity from now on. Transfers already
// reserved keep their booked completion times (the bits in flight were
// committed at the old rate); only future reservations serialize at the new
// rate. Scenario-driven access-link throttling uses this. A non-positive
// rate panics, as in NewPort.
func (p *Port) SetRate(rate units.BitRate) {
	if rate <= 0 {
		panic(fmt.Sprintf("access: non-positive port rate %v", rate))
	}
	p.rate = rate
}

// SetQueueLimit bounds the port's transfer queue from now on: a TryReserve
// arriving with limit reservations outstanding is tail-dropped. 0 restores
// the unbounded FIFO; negative panics.
func (p *Port) SetQueueLimit(limit int) {
	if limit < 0 {
		panic(fmt.Sprintf("access: negative queue limit %d", limit))
	}
	p.limit = limit
}

// QueueLimit reports the configured bound (0 = unbounded).
func (p *Port) QueueLimit() int { return p.limit }

// drain resets the queue counter once every booked transfer has finished.
// Reserve used to do this lazily on its next call, which left the internal
// counter stale between reservations (Queued compensated by checking
// busyUntil); now every entry point that reads or extends the queue drains
// first, so the counter is always exact.
func (p *Port) drain(now sim.Time) {
	if p.busyUntil <= now {
		p.queued = 0
	}
}

// Queued reports how many reservations are outstanding at now.
func (p *Port) Queued(now sim.Time) int {
	p.drain(now)
	return p.queued
}

// Backlog reports how long a transfer reserved at now would wait before
// starting.
func (p *Port) Backlog(now sim.Time) time.Duration {
	if p.busyUntil <= now {
		return 0
	}
	return p.busyUntil.Sub(now)
}

// Reserve books the port for size bytes starting no earlier than now and
// returns the transfer's start and end instants. Reservations are FIFO:
// each begins when the previous one ends. Reserve never drops — it is the
// must-send path (control traffic, callers predating the bounded queue);
// congestion-sensitive callers use TryReserve.
func (p *Port) Reserve(now sim.Time, size units.ByteSize) (start, end sim.Time) {
	p.drain(now)
	return p.book(now, size)
}

// TryReserve is Reserve under the port's queue bound: with a positive limit
// and that many reservations already outstanding the transfer is
// tail-dropped (ok=false) instead of queued. With no limit it is exactly
// Reserve.
func (p *Port) TryReserve(now sim.Time, size units.ByteSize) (start, end sim.Time, ok bool) {
	p.drain(now)
	if p.limit > 0 && p.queued >= p.limit {
		return 0, 0, false
	}
	start, end = p.book(now, size)
	return start, end, true
}

// book extends the FIFO by one transfer; callers have already drained.
func (p *Port) book(now sim.Time, size units.ByteSize) (start, end sim.Time) {
	start = now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	end = start.Add(p.rate.TransmitTime(size))
	p.busyUntil = end
	p.queued++
	return start, end
}

// MTU-sized payload used to packetize chunks. 1250 bytes is the paper's own
// calibration packet (1 ms at 10 Mbit/s).
const PacketPayload = 1250 * units.Byte

// Packetize splits a transfer of size bytes into MTU-sized packet payloads,
// last packet possibly short. Size zero yields no packets.
func Packetize(size units.ByteSize) []units.ByteSize {
	return PacketizeInto(nil, size)
}

// PacketizeInto is Packetize writing into dst's capacity, growing it only
// when too small. Serving loops that packetize the same chunk size on every
// transfer thread one scratch slice through it instead of allocating per
// chunk.
func PacketizeInto(dst []units.ByteSize, size units.ByteSize) []units.ByteSize {
	if size <= 0 {
		return nil
	}
	n := int((size + PacketPayload - 1) / PacketPayload)
	if cap(dst) < n {
		dst = make([]units.ByteSize, n)
	}
	dst = dst[:n]
	for i := 0; i < n-1; i++ {
		dst[i] = PacketPayload
	}
	dst[n-1] = size - units.ByteSize(n-1)*PacketPayload
	return dst
}

// Train computes per-packet departure and arrival instants for a burst of
// packets sent back-to-back from a sender uplink of rate up toward a
// receiver downlink of rate down across a path with one-way delay owd.
//
// Departures are spaced by uplink serialization. Each arrival completes
// after the packet also serializes through the downlink, and cannot precede
// the previous arrival plus that serialization (store-and-forward FIFO).
// Consequently the receiver-side gap between consecutive full-size packets
// equals the serialization time at min(up, down) — exactly the packet-pair
// observable the paper's BW classifier relies on.
//
// jitter, when non-nil, adds a uniform random forwarding delay in
// [0, maxJitter) to each packet's network traversal. Jitter can only widen
// gaps (or leave the bottleneck-imposed floor intact), never compress them
// below the serialization floor, matching real FIFO queues.
func Train(start sim.Time, sizes []units.ByteSize, up, down units.BitRate,
	owd time.Duration, jitter *rand.Rand, maxJitter time.Duration) (departs, arrives []sim.Time) {
	return TrainInto(nil, nil, start, sizes, up, down, owd, jitter, maxJitter)
}

// TrainInto is Train writing into the capacity of the two provided slices,
// growing them only when too small. The chunk-serving hot path reuses one
// pair of scratch slices per network, which removes the two per-transfer
// allocations Train itself would make. Jitter draws are identical to
// Train's, so swapping call styles never shifts the RNG stream.
func TrainInto(dstDeparts, dstArrives []sim.Time, start sim.Time, sizes []units.ByteSize,
	up, down units.BitRate, owd time.Duration, jitter *rand.Rand, maxJitter time.Duration) (departs, arrives []sim.Time) {

	if cap(dstDeparts) < len(sizes) {
		dstDeparts = make([]sim.Time, len(sizes))
	}
	if cap(dstArrives) < len(sizes) {
		dstArrives = make([]sim.Time, len(sizes))
	}
	departs = dstDeparts[:len(sizes)]
	arrives = dstArrives[:len(sizes)]
	bottleneck := min(up, down)
	cursor := start
	var prevArrive sim.Time
	// The three serialization times depend only on the packet size, and a
	// packetized chunk is one run of full-size packets plus a tail: compute
	// them once per run of equal sizes, not per packet (a size of 0 takes
	// no time).
	var runSize units.ByteSize
	var txUp, txDown, txFloor time.Duration
	for i, sz := range sizes {
		if sz != runSize {
			runSize = sz
			txUp = up.TransmitTime(sz)
			txDown = down.TransmitTime(sz)
			txFloor = bottleneck.TransmitTime(sz)
		}
		depart := cursor.Add(txUp) // instant the last bit leaves the sender
		cursor = depart
		departs[i] = depart

		delay := owd
		if jitter != nil && maxJitter > 0 {
			delay += time.Duration(jitter.Int63n(int64(maxJitter)))
		}
		arrive := depart.Add(delay + txDown)
		if i > 0 {
			// A later packet queues behind its predecessor along the
			// path FIFO: spacing never compresses below the packet's
			// serialization time at the path bottleneck.
			if floor := prevArrive.Add(txFloor); arrive < floor {
				arrive = floor
			}
		}
		arrives[i] = arrive
		prevArrive = arrive
	}
	return departs, arrives
}

// Profiles for world generation, in the spirit of Table I's population mix.
var (
	// LAN100 is the institutional "high-bw" attachment.
	LAN100 = Link{Spec: units.Symmetric(100 * units.Mbps)}
	// LAN1000 is a well-provisioned campus attachment.
	LAN1000 = Link{Spec: units.Symmetric(units.Gbps)}
	// DSL6 is the 6/0.512 home profile from Table I.
	DSL6 = Link{Spec: units.AccessSpec{Down: 6 * units.Mbps, Up: 512 * units.Kbps}}
	// DSL4 is the 4/0.384 home profile.
	DSL4 = Link{Spec: units.AccessSpec{Down: 4 * units.Mbps, Up: 384 * units.Kbps}}
	// DSL8 is the 8/0.384 home profile.
	DSL8 = Link{Spec: units.AccessSpec{Down: 8 * units.Mbps, Up: 384 * units.Kbps}}
	// DSL22 is the 22/1.8 home profile.
	DSL22 = Link{Spec: units.AccessSpec{Down: 22 * units.Mbps, Up: 1800 * units.Kbps}}
	// DSL25 is the 2.5/0.384 home profile.
	DSL25 = Link{Spec: units.AccessSpec{Down: 2500 * units.Kbps, Up: 384 * units.Kbps}}
	// CATV6 is the 6/0.512 cable profile.
	CATV6 = Link{Spec: units.AccessSpec{Down: 6 * units.Mbps, Up: 512 * units.Kbps}}
)
