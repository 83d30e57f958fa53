package experiment

import (
	"strings"
	"testing"

	"napawine/internal/chunkstream"
	"napawine/internal/scenario"
)

// TestPackedFieldsAreBoundedAtTheDoor lists every panic a packed field can
// raise, each with the outside input that bounds the field. Where a check
// refuses that input, refuse sets it on a run's config and Run must fail
// before it builds a world (a world it built would fail on the invalid
// HighBwFraction instead). Where no check does, reason says why no input
// reaches the panic, or names the path that reaches it unchecked.
func TestPackedFieldsAreBoundedAtTheDoor(t *testing.T) {
	for _, row := range []struct {
		panic, input, reason string
		refuse               func(*Config)
	}{
		{
			panic: "overlay.rate32: a delivery-rate estimate past 2³² − 1 bit/s, in a partner record or the rate memory",
			input: "a scenario's throttle and country-throttle factors, the only input that scales a link",
			refuse: func(c *Config) {
				c.Scenario = &scenario.Spec{Name: "x", Events: []scenario.Event{
					{Kind: scenario.Throttle, From: 0.1, To: 0.2, Fraction: 0.5, Factor: 2}}}
			},
		},
		{
			panic: "overlay.newRequest: a chunk id past 2³¹ − 1 in a request record",
			input: "Duration: the calendar issues one 48 kB chunk a second at 384 kbit/s",
			reason: "chunk 2³¹ is 68 years of virtual time in; no check refuses such a Duration, but at the " +
				"50-peer floor a run takes about 1.1 host seconds per 30 virtual minutes, so 15 host days",
		},
		{
			panic: "analysis.addVideo: more than 2²³ − 1 video rows in a probe's table",
			input: "the remotes a probe exchanges video with: in a run, nodes of its swarm; in cmd/traceinspect, remotes in a trace file",
			reason: "a run's swarm may reach 2²⁴ nodes, but a probe holds at most 40 partners at once and in the 2-minute " +
				"PPLive run trades video with about 41 distinct remotes; a trace file reaches the panic unchecked",
		},
		{
			panic:  "overlay.AddNode: a peer id past MaxPeerID, 2²⁴ − 1, in a partner record's key",
			input:  "Peers, the peer factor and a scenario's extra-peer factor",
			refuse: func(c *Config) { c.World.Peers = 1 << 24 },
		},
		{
			panic: "sim enqueue: sequence number 2⁵⁶ in event.order",
			input: "none: one number per scheduled event",
			reason: "the 50-peer run above schedules about 10⁶ events a host second, " +
				"so 2⁵⁶ events take over 2,000 host years",
		},
		{
			panic: "sniffer.Spool.Add: a non-IPv4 address, or a size past 2³¹ bytes, in a staged record",
			input: "none: addresses come from the topology builder, sizes from access.PacketizeInto and fixed control sizes",
			reason: "the builder hands out IPv4 /24 hosts only; a packet carries at most 1,250 bytes " +
				"and the chunk size is a constant",
		},
		{
			panic:  "chunkstream.Publish: a buffer map wider than MaxWindow in an advert",
			input:  "BufferWindow",
			refuse: func(c *Config) { c.BufferWindow = chunkstream.MaxWindow + 1 },
		},
	} {
		if row.refuse == nil {
			if row.reason == "" {
				t.Errorf("%s: neither a check nor a reason", row.panic)
			}
			continue
		}
		cfg := Default("TVAnts")
		cfg.World.HighBwFraction = 2
		row.refuse(&cfg)
		if _, err := Run(cfg); err == nil || strings.Contains(err.Error(), "HighBwFraction") {
			t.Errorf("%s: Run() with too large a %s = %v, want it refused before the world is built", row.panic, row.input, err)
		}
	}
}
