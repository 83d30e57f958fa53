package overlay

import (
	"reflect"
	"testing"
	"time"

	"napawine/internal/packet"
	"napawine/internal/sniffer"
)

// TestProbesArePassive runs one seeded world twice, once with sniffers on a
// handful of nodes and once with none: the event count and the whole
// ground-truth ledger — scalars, per-peer columns, per-pair and per-AS maps
// — must be identical. Receiver-side packet facts (arrival instant, TTL)
// are computed only where a sniffer records them, so this is the test that
// keeps the jitter draw, and everything downstream of the RNG stream,
// independent of who is watching — the paper's premise that probes only
// observe. The two-shard case covers the cross-shard control path; there a
// probe's records ride to its shard as events of their own, so the event
// count is compared on the serial engine only.
func TestProbesArePassive(t *testing.T) {
	for _, shards := range []int{1, 2} {
		// rxControl counts control packets a probe recorded on receipt
		// with the path's TTL decrement on them — the facts a bare run
		// never computes.
		var rxControl int
		run := func(probed bool) (uint64, *Ledger) {
			w := buildWorldShards(t, 21, 24, 3, testConfig(), shards)
			if probed {
				// Spread over the fixture's ASes, so every shard and both
				// countries host a recording receiver.
				for _, i := range []int{0, 1, 3, 6, 10} {
					nd := w.peers[i]
					w.net.AttachSniffer(nd).Capture().Attach(sniffer.ConsumerFunc(func(r packet.Record) {
						if r.Dst == nd.Host.Addr && r.Kind == packet.Signaling && r.TTL < packet.InitialTTL {
							rxControl++
						}
					}))
				}
			}
			w.startAll()
			events := w.eng.Processed
			if w.sh != nil {
				w.sh.Run(45 * time.Second)
				events = w.sh.Processed
			} else {
				w.eng.Run(45 * time.Second)
			}
			w.net.FlushCaptures()
			return events(), w.net.LedgerView()
		}
		bareEvents, bare := run(false)
		probedEvents, probed := run(true)

		if shards == 1 && bareEvents != probedEvents {
			t.Errorf("shards=%d: %d events with probes, %d without", shards, probedEvents, bareEvents)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("shards=%d: ledger depends on the probes: signal %d vs %d, video %d vs %d, served %d vs %d",
				shards, probed.SignalTotal, bare.SignalTotal, probed.VideoTotal, bare.VideoTotal,
				probed.ChunksServedTotal, bare.ChunksServedTotal)
		}
		if bare.SignalTotal == 0 || bare.VideoTotal == 0 {
			t.Errorf("shards=%d: run moved no traffic; nothing was compared", shards)
		}
		if rxControl == 0 {
			t.Errorf("shards=%d: probes recorded no received control packet", shards)
		}
	}
}
