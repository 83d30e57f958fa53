// Package sniffer implements probe-side packet capture: each NAPA-WINE-style
// probe host gets a Capture attached to its access link, which fans every
// observed packet out to any number of consumers (in-memory sinks, binary
// trace writers, online aggregators).
//
// Keeping capture separate from analysis mirrors the paper's workflow: the
// testbed collected raw traces during the experiment and all inference
// happened offline. Here the "offline" step can run either from a stored
// trace or live from the same record stream, with identical results.
package sniffer

import (
	"fmt"
	"net/netip"

	"napawine/internal/packet"
)

// Consumer receives captured records in timestamp order.
type Consumer interface {
	Consume(packet.Record)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(packet.Record)

// Consume calls f(r).
func (f ConsumerFunc) Consume(r packet.Record) { f(r) }

// Capture observes all packets crossing one probe's access link.
type Capture struct {
	probe     netip.Addr
	consumers []Consumer
	count     uint64
	lastTS    int64
}

// New builds a capture for the given probe address.
func New(probe netip.Addr) *Capture {
	if !probe.Is4() {
		panic(fmt.Sprintf("sniffer: probe address must be IPv4, got %v", probe))
	}
	return &Capture{probe: probe, lastTS: -1}
}

// Probe reports the address this capture is attached to.
func (c *Capture) Probe() netip.Addr { return c.probe }

// Attach registers a consumer. Attach order is delivery order.
func (c *Capture) Attach(consumer Consumer) { c.consumers = append(c.consumers, consumer) }

// Count reports how many records have been observed.
func (c *Capture) Count() uint64 { return c.count }

// Observe ingests one record. It panics when the record does not involve
// the probe (a capture seeing foreign traffic means the simulation wired a
// packet to the wrong sniffer — a bug to surface, not to skip) or when
// timestamps run backwards, which would corrupt IPG measurements.
func (c *Capture) Observe(r packet.Record) {
	if r.Src != c.probe && r.Dst != c.probe {
		panic(fmt.Sprintf("sniffer: record %v→%v does not involve probe %v", r.Src, r.Dst, c.probe))
	}
	if int64(r.TS) < c.lastTS {
		panic(fmt.Sprintf("sniffer: timestamp regression %v after %v at probe %v", r.TS, c.lastTS, c.probe))
	}
	c.lastTS = int64(r.TS)
	c.count++
	for _, cons := range c.consumers {
		cons.Consume(r)
	}
}

// Remote reports the non-probe endpoint of a record captured at probe, and
// whether the packet was inbound (toward the probe).
func Remote(r packet.Record, probe netip.Addr) (remote netip.Addr, inbound bool) {
	if r.Dst == probe {
		return r.Src, true
	}
	return r.Dst, false
}

// MemorySink retains all records in memory, for tests and small runs.
type MemorySink struct {
	Records []packet.Record
}

// Consume appends the record.
func (m *MemorySink) Consume(r packet.Record) { m.Records = append(m.Records, r) }

// WriterSink forwards records to a binary trace writer, retaining the first
// write error for inspection (capture paths have no way to return errors
// mid-simulation).
type WriterSink struct {
	W   *packet.Writer
	Err error
}

// Consume writes the record, latching the first error.
func (s *WriterSink) Consume(r packet.Record) {
	if s.Err != nil {
		return
	}
	s.Err = s.W.Write(r)
}

// TallySink sums the bytes a probe received and sent. A run's probes do not
// attach one: their aggregator already holds the same sums
// (analysis.Aggregator.Bytes). It remains for the capture kernel in
// bench/kernels.go, which observes through two consumers.
type TallySink struct {
	probe netip.Addr

	InBytes, OutBytes int64
}

// NewTallySink builds a tally for the given probe.
func NewTallySink(probe netip.Addr) *TallySink { return &TallySink{probe: probe} }

// Consume tallies the record.
func (s *TallySink) Consume(r packet.Record) {
	if _, inbound := Remote(r, s.probe); inbound {
		s.InBytes += int64(r.Size)
	} else {
		s.OutBytes += int64(r.Size)
	}
}
