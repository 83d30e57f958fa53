// Package packet defines the packet-level observation record produced at
// probe hosts.
//
// A Record carries exactly what a passive sniffer at the probe's access
// link would see — timestamp, addresses, ports, payload size, TTL — plus a
// ground-truth Kind annotation that real traces do not have. The analysis
// layer must not consult Kind for inference (the paper's heuristics work
// from sizes and timing alone); Kind exists so tests can validate those
// heuristics against the truth.
package packet

import (
	"fmt"
	"net/netip"

	"napawine/internal/sim"
	"napawine/internal/units"
)

// Kind is the ground-truth role of a packet in the emulated protocol.
type Kind uint8

// Packet roles. Signaling covers buffer maps, keep-alives and peer-exchange
// gossip; Request is a chunk request; Video is chunk payload.
const (
	Signaling Kind = iota
	Request
	Video
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Signaling:
		return "signaling"
	case Request:
		return "request"
	case Video:
		return "video"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one captured packet.
type Record struct {
	TS   sim.Time // capture instant at the probe
	Src  netip.Addr
	Dst  netip.Addr
	Size units.ByteSize // transport payload bytes
	TTL  uint8          // IP TTL as seen at the probe
	Kind Kind
}

// InitialTTL is the TTL every emulated peer stamps on outgoing packets. The
// paper assumes Windows hosts, whose default is 128, and infers hop counts
// as 128−TTL (§III-B).
const InitialTTL = 128
