package overlay

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"napawine/internal/access"
	"napawine/internal/chunkstream"
	"napawine/internal/packet"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/topology"
	"napawine/internal/units"
)

// testProfile is a small, fast-converging generic client.
func testProfile() *Profile {
	return &Profile{
		Name:              "test",
		PartnerTarget:     8,
		MaxPartners:       14,
		DropInterval:      15 * time.Second,
		ContactInterval:   2 * time.Second,
		NeighborListMax:   50,
		SignalingInterval: 1 * time.Second,
		KeepaliveFanout:   1,
		ScheduleInterval:  500 * time.Millisecond,
		PullDelay:         4,
		MaxInflight:       4,
		ChunkStrategy:     policy.DefaultStrategy(),
		DiscoveryWeight:   policy.Bias{},
		RequestWeight:     policy.Bias{Ref: 384 * units.Kbps, Alpha: 2, Floor: 768 * units.Kbps},
		RetainWeight:      policy.Bias{Ref: 384 * units.Kbps, Alpha: 1, Floor: 192 * units.Kbps},
	}
}

func testConfig() Config {
	return Config{
		Calendar:      chunkstream.NewCalendar(384*units.Kbps, 48*units.KB),
		BufferWindow:  64,
		TrackerBatch:  12,
		JitterMax:     2 * time.Millisecond,
		UplinkBusyCap: 3 * time.Second,
	}
}

// world is a reusable miniature swarm fixture.
type world struct {
	eng   *sim.Engine  // the serial engine, or sh's global engine
	sh    *sim.Sharded // nil on one shard
	topo  *topology.Topology
	net   *Network
	src   *Node
	peers []*Node
}

func buildWorld(t testing.TB, seed int64, nPeers int, slowEvery int) *world {
	t.Helper()
	return buildWorldCfg(t, seed, nPeers, slowEvery, testConfig())
}

func buildWorldCfg(t testing.TB, seed int64, nPeers int, slowEvery int, cfg Config) *world {
	t.Helper()
	return buildWorldShards(t, seed, nPeers, slowEvery, cfg, 1)
}

// buildWorldShards builds the fixture on `shards` shard engines, ASes dealt
// round-robin; one shard is the serial engine. Sharded worlds run through
// w.sh and are read through w.net.LedgerView().
func buildWorldShards(t testing.TB, seed int64, nPeers int, slowEvery int, cfg Config, shards int) *world {
	t.Helper()
	b := topology.NewBuilder(seed)
	b.AddCountry("CN", topology.Asia)
	b.AddCountry("IT", topology.Europe)
	var subs []topology.SubnetID
	shardOf := make(map[topology.ASN]int)
	for i := 0; i < 6; i++ {
		cc := topology.CC("CN")
		if i >= 4 {
			cc = "IT"
		}
		asn := b.AddAS(cc)
		shardOf[asn] = i % shards
		subs = append(subs, b.AddSubnet(asn), b.AddSubnet(asn))
	}
	topo := b.Build()
	w := &world{topo: topo}
	if shards == 1 {
		w.eng = sim.New(seed)
		w.net = New(w.eng, topo, cfg)
	} else {
		w.sh = sim.NewSharded(seed, shards, topo.MinInterGroupDelay(shardOf))
		w.eng = w.sh.Global()
		w.net = NewSharded(w.sh, topo, cfg, shardOf)
	}

	srcHost, err := topo.NewHost(subs[0])
	if err != nil {
		t.Fatal(err)
	}
	w.src = w.net.AddSource(srcHost, access.LAN100, testProfile())

	for i := 0; i < nPeers; i++ {
		h, err := topo.NewHost(subs[(i+1)%len(subs)])
		if err != nil {
			t.Fatal(err)
		}
		link := access.LAN100
		if slowEvery > 0 && i%slowEvery == 0 {
			link = access.DSL6
		}
		w.peers = append(w.peers, w.net.AddNode(h, link, testProfile()))
	}
	return w
}

// checkEverySecond audits every node of w once per simulated second of the
// run that follows, from an event on the global engine (between shard
// windows on a sharded world): its partner table (checkPartnerTable) and the
// checks of its neighbour list, rate memory and in-flight set. The audit
// only reads.
func (w *world) checkEverySecond(t testing.TB) {
	w.eng.Every(time.Second, time.Second, func() {
		for _, nd := range w.net.nodes {
			checkPartnerTable(t, nd)
			p := nd.Profile
			if err := errors.Join(nd.neighbors.check(p.NeighborListMax), nd.rateMemory.check(), nd.inflight.check(p.MaxInflight)); err != nil {
				t.Fatalf("node %d: %v", nd.ID, err)
			}
		}
	})
}

func (w *world) startAll() {
	w.src.ScheduleJoin(0)
	for i, p := range w.peers {
		p.ScheduleJoin(time.Duration(i) * 200 * time.Millisecond)
	}
}

func TestSwarmSustainsStream(t *testing.T) {
	w := buildWorld(t, 1, 24, 4)
	w.startAll()
	w.eng.Run(90 * time.Second)

	okCount := 0
	for _, p := range w.peers {
		if !p.Online() {
			t.Fatalf("peer %d offline unexpectedly", p.ID)
		}
		if p.Continuity() > 0.85 {
			okCount++
		}
	}
	if okCount < len(w.peers)*3/4 {
		t.Errorf("only %d/%d peers achieved continuity > 0.85", okCount, len(w.peers))
	}
	var totalVideo int64
	for _, v := range w.net.LedgerView().VideoRx {
		totalVideo += v
	}
	if totalVideo == 0 {
		t.Fatal("no video moved at all")
	}
}

func TestPartnerBoundsRespected(t *testing.T) {
	w := buildWorld(t, 2, 30, 0)
	w.startAll()
	w.eng.Run(60 * time.Second)
	for _, p := range append(w.peers, w.src) {
		if got := p.Partners(); got > p.Profile.MaxPartners {
			t.Errorf("peer %d holds %d partners, max %d", p.ID, got, p.Profile.MaxPartners)
		}
	}
}

func TestProbeCapturesPlausibleTraffic(t *testing.T) {
	w := buildWorld(t, 3, 20, 4)
	probe := w.peers[3]
	cap := w.net.AttachSniffer(probe)
	w.startAll()
	w.eng.Run(60 * time.Second)
	w.net.FlushCaptures()

	if cap.Count() == 0 {
		t.Fatal("probe saw no packets")
	}
	// The probe must have seen both video and signaling, in both
	// directions, and the ledger must agree that it received video.
	if w.net.LedgerView().VideoRx[probe.ID] == 0 {
		t.Error("probe received no video per ledger")
	}
}

func TestSnifferRecordsMatchLedgerVideo(t *testing.T) {
	w := buildWorld(t, 4, 16, 0)
	probe := w.peers[0]
	capture := w.net.AttachSniffer(probe)
	var inVideo, outVideo int64
	capture.Attach(sniffer.ConsumerFunc(func(r packet.Record) {
		if r.Kind != packet.Video {
			return
		}
		if r.Dst == probe.Host.Addr {
			inVideo += int64(r.Size)
		} else {
			outVideo += int64(r.Size)
		}
	}))
	w.startAll()
	w.eng.Run(45 * time.Second)
	w.net.FlushCaptures()

	// Chunks still in flight at the horizon were ledgered at serve time
	// but their packets may land after the run; captured video can lag the
	// ledger slightly, never exceed it.
	ledgerRx := w.net.LedgerView().VideoRx[probe.ID]
	if inVideo > ledgerRx {
		t.Errorf("captured video in (%d) exceeds ledger (%d)", inVideo, ledgerRx)
	}
	if ledgerRx > 0 && inVideo < ledgerRx/2 {
		t.Errorf("captured video in (%d) under half of ledger (%d)", inVideo, ledgerRx)
	}
	ledgerTx := w.net.LedgerView().VideoTx[probe.ID]
	if outVideo > ledgerTx {
		t.Errorf("captured video out (%d) exceeds ledger (%d)", outVideo, ledgerTx)
	}
}

func TestFirewalledPairNeverPartners(t *testing.T) {
	w := buildWorld(t, 5, 10, 0)
	fw1 := w.peers[0]
	fw2 := w.peers[1]
	fw1.Link.Firewall = true
	fw2.Link.Firewall = true
	w.startAll()
	w.eng.Run(60 * time.Second)
	if fw1.partnerByID(fw2.ID) != nil {
		t.Error("two firewalled peers formed a partnership")
	}
	if fw2.partnerByID(fw1.ID) != nil {
		t.Error("two firewalled peers formed a partnership (reverse)")
	}
}

func TestChurnCycleSurvives(t *testing.T) {
	w := buildWorld(t, 6, 20, 4)
	w.eng.Schedule(0, w.src.Join)
	for i, p := range w.peers {
		if i < 10 {
			p.ScheduleChurn(time.Duration(i)*500*time.Millisecond, 20*time.Second, 5*time.Second)
		} else {
			p := p
			w.eng.Schedule(time.Duration(i)*200*time.Millisecond, p.Join)
		}
	}
	w.checkEverySecond(t)
	w.eng.Run(2 * time.Minute)
	// The network must remain functional: stable peers keep streaming.
	streaming := 0
	for _, p := range w.peers[10:] {
		if p.Continuity() > 0.7 {
			streaming++
		}
	}
	if streaming < 5 {
		t.Errorf("only %d/10 stable peers stream through churn", streaming)
	}
}

func TestLeaveStopsActivity(t *testing.T) {
	w := buildWorld(t, 7, 12, 0)
	w.startAll()
	w.eng.Run(30 * time.Second)
	victim := w.peers[5]
	rxAtLeave := w.net.LedgerView().VideoRx[victim.ID]
	victim.Leave()
	if victim.Online() {
		t.Fatal("Leave did not mark offline")
	}
	w.eng.Run(60 * time.Second)
	rxAfter := w.net.LedgerView().VideoRx[victim.ID]
	// In-flight chunks ledgered before the leave may still account, but no
	// new requests can be issued; allow at most a couple of stragglers.
	if rxAfter-rxAtLeave > 4*48_000 {
		t.Errorf("offline peer kept receiving: %d bytes after leave", rxAfter-rxAtLeave)
	}
	if w.net.OnlineCount() != 12 { // 11 peers + source
		t.Errorf("OnlineCount = %d, want 12", w.net.OnlineCount())
	}
}

func TestDeterministicLedger(t *testing.T) {
	run := func() (int64, uint64) {
		w := buildWorld(t, 42, 18, 3)
		w.startAll()
		w.eng.Run(45 * time.Second)
		var total int64
		for _, v := range w.net.LedgerView().VideoRx {
			total += v
		}
		return total, w.eng.Processed()
	}
	v1, e1 := run()
	v2, e2 := run()
	if v1 != v2 || e1 != e2 {
		t.Errorf("same seed diverged: bytes %d vs %d, events %d vs %d", v1, v2, e1, e2)
	}
	if v1 == 0 {
		t.Error("deterministic run moved no video")
	}
}

func TestBandwidthPreferenceEmerges(t *testing.T) {
	// Half the swarm is DSL, half institutional. With bandwidth-weighted
	// request scheduling plus uplink backpressure, most received bytes
	// must come from high-bandwidth peers — the Table IV BW row. Rate
	// estimates need a warm-up, so only steady state (after 60s) counts.
	w := buildWorld(t, 8, 30, 2) // every 2nd peer slow
	w.startAll()
	w.eng.Run(time.Minute)
	baseline := slices.Clone(w.net.LedgerView().VideoTx)
	w.eng.Run(3 * time.Minute)

	var fromFast, fromSlow int64
	for id, bytes := range w.net.LedgerView().VideoTx {
		src := w.net.NodeByID(PeerID(id))
		if src.IsSource() {
			continue
		}
		delta := bytes - baseline[id]
		if src.Link.HighBandwidth() {
			fromFast += delta
		} else {
			fromSlow += delta
		}
	}
	total := fromFast + fromSlow
	if total == 0 {
		t.Fatal("no peer-to-peer video at all")
	}
	frac := float64(fromFast) / float64(total)
	if frac < 0.7 {
		t.Errorf("high-bw peers supplied only %.2f of steady-state bytes, want > 0.7", frac)
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []func(p *Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.PartnerTarget = 0 },
		func(p *Profile) { p.MaxPartners = p.PartnerTarget - 1 },
		func(p *Profile) { p.ContactInterval = 0 },
		func(p *Profile) { p.PullDelay = 0 },
		func(p *Profile) { p.DropInterval = 0 },
		func(p *Profile) { p.DiscoveryWeight = nil },
	}
	if err := testProfile().Validate(); err != nil {
		t.Fatalf("the test profile: %v", err)
	}
	for i, mutate := range bad {
		p := testProfile()
		mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("case %d: Validate accepted an invalid profile", i)
			continue
		}
		func() {
			defer func() {
				if msg := recover(); msg != err.Error() {
					t.Errorf("case %d: validate panicked with %v, want Validate's %q", i, msg, err)
				}
			}()
			p.validate()
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.BufferWindow = 0 },
		func(c *Config) { c.BufferWindow = chunkstream.MaxWindow + 1 },
		func(c *Config) { c.TrackerBatch = 0 },
		func(c *Config) { c.UplinkBusyCap = 0 },
	} {
		c := testConfig()
		mutate(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config accepted", i)
				}
			}()
			c.validate()
		}()
	}
	// The window check names the field and the bound it is past.
	c := testConfig()
	c.BufferWindow = chunkstream.MaxWindow + 1
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "BufferWindow") || !strings.Contains(msg, "chunkstream.MaxWindow") {
			t.Errorf("window past the advert: panic %q names neither BufferWindow nor chunkstream.MaxWindow", msg)
		}
	}()
	c.validate()
}

func TestSecondSourcePanics(t *testing.T) {
	w := buildWorld(t, 9, 2, 0)
	h := w.peers[0].Host
	defer func() {
		if recover() == nil {
			t.Error("second source should panic")
		}
	}()
	w.net.AddSource(h, access.LAN100, testProfile())
}

func TestDoubleJoinLeaveIdempotent(t *testing.T) {
	w := buildWorld(t, 10, 4, 0)
	w.eng.Schedule(0, w.src.Join)
	p := w.peers[0]
	w.eng.Schedule(time.Second, p.Join)
	w.eng.Schedule(2*time.Second, p.Join) // second join is a no-op
	w.eng.Run(10 * time.Second)
	if w.net.OnlineCount() != 2 {
		t.Errorf("OnlineCount = %d, want 2", w.net.OnlineCount())
	}
	p.Leave()
	p.Leave() // second leave is a no-op
	if w.net.OnlineCount() != 1 {
		t.Errorf("OnlineCount after leaves = %d, want 1", w.net.OnlineCount())
	}
}

func BenchmarkSwarm20Peers30s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := buildWorld(b, int64(i+1), 20, 4)
		w.startAll()
		w.eng.Run(30 * time.Second)
	}
}

// TestRejoinAfterOutageResumesCleanly covers the scenario subsystem's
// hardest overlay contract: a peer that leaves during a tracker outage and
// rejoins afterwards must re-register with the tracker, rebuild a partner
// set and resume streaming — and its first session must leave no ghost
// activity behind (a left peer emits nothing once its stale ticks drain).
func TestRejoinAfterOutageResumesCleanly(t *testing.T) {
	w := buildWorld(t, 11, 20, 4)
	victim := w.peers[4]
	capture := w.net.AttachSniffer(victim)
	w.startAll()
	w.eng.Run(30 * time.Second)

	w.net.SetTrackerPaused(true)
	victim.Leave()
	if victim.Online() || victim.Partners() != 0 {
		t.Fatal("Leave did not tear the victim down")
	}

	// Drain the one no-op firing each cancelled periodic tick gets, then
	// the victim's link must be completely silent: its probe captures
	// nothing, and the ledger credits it no video. Run takes an absolute
	// horizon: the quiet window is 80–120 s.
	w.eng.Run(80 * time.Second)
	w.net.FlushCapturesBefore()
	pktsAtRest := capture.Count()
	if pktsAtRest == 0 {
		t.Fatal("the victim's probe captured nothing before Leave; the check would be vacuous")
	}
	rxAtRest := w.net.LedgerView().VideoRx[victim.ID]
	w.eng.Run(120 * time.Second)
	w.net.FlushCapturesBefore()
	if got := capture.Count(); got != pktsAtRest {
		t.Errorf("ghost traffic after Leave: %d packets", got-pktsAtRest)
	}
	if got := w.net.LedgerView().VideoRx[victim.ID]; got != rxAtRest {
		t.Errorf("ghost video after Leave: %d bytes", got-rxAtRest)
	}

	// Outage over, the viewer comes back.
	w.net.SetTrackerPaused(false)
	victim.Join()
	w.eng.Run(180 * time.Second)
	if !victim.Online() {
		t.Fatal("victim not online after rejoin")
	}
	if victim.Partners() == 0 {
		t.Error("rejoined victim rebuilt no partner set (tracker re-registration failed?)")
	}
	grew := w.net.LedgerView().VideoRx[victim.ID] - rxAtRest
	if grew < 10*48_000 {
		t.Errorf("rejoined victim resumed only %d video bytes", grew)
	}
	if c := victim.Continuity(); c < 0.7 {
		t.Errorf("rejoined victim continuity %.3f, want > 0.7", c)
	}
}

// TestRejoinProcessedDeterministic replays the leave-during-outage /
// rejoin dance twice: ghost timers from the first session would perturb the
// event count, so byte-identical Processed() across replays (and a stable
// pending queue) is the regression guard.
func TestRejoinProcessedDeterministic(t *testing.T) {
	dance := func() (uint64, int) {
		w := buildWorld(t, 12, 16, 4)
		w.startAll()
		victim := w.peers[2]
		w.eng.Schedule(25*time.Second, func() {
			w.net.SetTrackerPaused(true)
			victim.Leave()
		})
		w.eng.Schedule(55*time.Second, func() {
			w.net.SetTrackerPaused(false)
			victim.Join()
		})
		w.eng.Run(2 * time.Minute)
		return w.eng.Processed(), w.eng.Pending()
	}
	p1, q1 := dance()
	p2, q2 := dance()
	if p1 != p2 || q1 != q2 {
		t.Errorf("rejoin dance diverged: processed %d/%d, pending %d/%d", p1, p2, q1, q2)
	}
}

// TestBlockDefersJoin covers the partition hook: a blocked node must stay
// offline through every Join attempt — scheduled arrivals and churn cycles
// alike — and a join attempted during the window must fire at Unblock, so
// an arrival scheduled inside a partition connects when the network heals
// instead of being lost.
func TestBlockDefersJoin(t *testing.T) {
	w := buildWorld(t, 13, 8, 0)
	w.startAll()
	w.eng.Run(20 * time.Second)
	nd := w.peers[0]
	nd.Block()
	if nd.Online() {
		t.Fatal("Block left the node online")
	}
	nd.Join() // must be deferred, not executed
	if nd.Online() {
		t.Fatal("Join succeeded while blocked")
	}
	w.eng.Run(30 * time.Second)
	if nd.Online() {
		t.Fatal("blocked node resurfaced")
	}
	nd.Unblock() // honours the deferred join
	w.eng.Run(30 * time.Second)
	if !nd.Online() || nd.Partners() == 0 {
		t.Error("deferred join did not fire at Unblock and rebuild partners")
	}

	// A node that never attempted to join while blocked stays offline.
	idle := w.peers[1]
	idle.Leave()
	idle.Block()
	idle.Unblock()
	if idle.Online() {
		t.Error("Unblock resurrected a node with no deferred join")
	}

	// A deferred join whose session ended (Leave) before Unblock is void.
	gone := w.peers[2]
	gone.Block()
	gone.Join()
	gone.Leave()
	gone.Unblock()
	if gone.Online() {
		t.Error("Unblock honoured a join whose session already ended")
	}
}

// TestSetLinkScaleIsAbsolute: factors apply to the factory rates, not
// cumulatively, and factor 1 restores them exactly.
func TestSetLinkScaleIsAbsolute(t *testing.T) {
	w := buildWorld(t, 14, 2, 0)
	nd := w.peers[0]
	orig := nd.Link.Spec
	nd.SetLinkScale(0.5)
	nd.SetLinkScale(0.5)
	if nd.Link.Spec.Up != units.BitRate(float64(orig.Up)*0.5) {
		t.Errorf("two 0.5 scales compounded: %v", nd.Link.Spec.Up)
	}
	nd.SetLinkScale(1)
	if nd.Link.Spec != orig {
		t.Errorf("scale 1 did not restore factory rates: %v vs %v", nd.Link.Spec, orig)
	}
	if nd.up.Rate() != orig.Up || nd.down.Rate() != orig.Down {
		t.Errorf("ports not restored: %v/%v", nd.up.Rate(), nd.down.Rate())
	}
}

// TestRetireIsPermanent: a retired node refuses every later Join, including
// its own churn cycle's — the overlay contract behind a scenario exodus.
func TestRetireIsPermanent(t *testing.T) {
	w := buildWorld(t, 15, 10, 0)
	w.eng.Schedule(0, w.src.Join)
	churner := w.peers[0]
	churner.ScheduleChurn(0, 10*time.Second, 3*time.Second)
	w.eng.Run(15 * time.Second)
	churner.Retire()
	if churner.Online() || !churner.Retired() {
		t.Fatal("Retire did not take the node down")
	}
	w.eng.Run(2 * time.Minute) // many churn cycles' worth
	if churner.Online() {
		t.Error("churn cycle resurrected a retired node")
	}
	churner.Join() // explicit joins are refused too
	if churner.Online() {
		t.Error("Join resurrected a retired node")
	}
}

// TestRetireStopsChurnChain: a retired node's churn loop must stop
// rescheduling itself — ghost cycles would burn events and RNG draws on
// refused joins for the rest of the run.
func TestRetireStopsChurnChain(t *testing.T) {
	w := buildWorld(t, 16, 1, 0)
	nd := w.peers[0]
	nd.ScheduleChurn(0, 5*time.Second, 2*time.Second)
	w.eng.Run(12 * time.Second)
	nd.Retire()
	// The in-flight chain segment drains (bounded by the 10×mean cap);
	// after that the engine must be empty — the source never joined, so
	// the churn chain was the only event producer.
	w.eng.Run(10 * time.Minute)
	if p := w.eng.Pending(); p != 0 {
		t.Errorf("retired node still has %d events scheduled", p)
	}
}

// TestPromoteSourceHandsOverOrigin: the source-handoff hook behind scenario
// failovers — the old source stops counting as origin, the backup natively
// holds the feed and the swarm keeps pulling from it.
func TestPromoteSourceHandsOverOrigin(t *testing.T) {
	w := buildWorld(t, 17, 16, 0)
	w.startAll()
	w.eng.Run(20 * time.Second)
	backup := w.peers[0]
	w.eng.Schedule(time.Second, func() {
		w.src.Retire()
		w.net.PromoteSource(backup)
	})
	w.eng.Run(25 * time.Second)
	if w.net.Source() != backup || !backup.IsSource() {
		t.Fatal("backup not promoted")
	}
	if w.src.IsSource() {
		t.Error("old source still counts as origin")
	}
	if backup.Continuity() != 1 {
		t.Error("a source must report perfect continuity")
	}
	live := w.net.Cfg.Calendar.LatestAt(w.eng.Now())
	if !backup.hasChunk(live, w.eng.Now()) {
		t.Error("promoted source does not hold the live edge")
	}
	served := w.net.LedgerView().VideoTx[backup.ID]
	w.eng.Run(60 * time.Second)
	if w.net.LedgerView().VideoTx[backup.ID] <= served {
		t.Error("promoted source served no chunks")
	}
}

// TestPromoteSourceRevivesOfflineBackup: promoting a churned-out (or even
// retired) backup brings it online — the operator turned the injection
// point on regardless of what the viewer behind it did.
func TestPromoteSourceRevivesOfflineBackup(t *testing.T) {
	w := buildWorld(t, 18, 4, 0)
	w.startAll()
	w.eng.Run(5 * time.Second)
	backup := w.peers[1]
	backup.Retire()
	if backup.Online() {
		t.Fatal("setup: backup should be offline")
	}
	w.net.PromoteSource(backup)
	if !backup.Online() || !backup.IsSource() || backup.Retired() {
		t.Errorf("promotion must revive the backup: online=%v source=%v retired=%v",
			backup.Online(), backup.IsSource(), backup.Retired())
	}
	// Idempotent: promoting the current source is a no-op.
	w.net.PromoteSource(backup)
	if w.net.Source() != backup {
		t.Error("re-promotion changed the source")
	}
}

func TestPromoteNilSourcePanics(t *testing.T) {
	w := buildWorld(t, 19, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("PromoteSource(nil) did not panic")
		}
	}()
	w.net.PromoteSource(nil)
}

// TestSetChurnScaleSpeedsUpCycling: scaling the churn rate must produce
// more on/off cycles over the same horizon, and the default scale is 1.
// Fixed seeds; both runs are deterministic, transitions counted by a 1 Hz
// online-state sampler.
func TestSetChurnScaleSpeedsUpCycling(t *testing.T) {
	cycles := func(scale float64) int {
		w := buildWorld(t, 20, 1, 0)
		nd := w.peers[0]
		if scale != 0 {
			nd.SetChurnScale(scale)
		}
		nd.ScheduleChurn(0, 60*time.Second, 20*time.Second)
		transitions, prev := 0, false
		w.eng.Every(time.Second, time.Second, func() {
			if cur := nd.Online(); cur != prev {
				transitions++
				prev = cur
			}
		})
		w.eng.Run(20 * time.Minute)
		return transitions
	}
	base, fast := cycles(0), cycles(8)
	if fast <= 2*base {
		t.Errorf("scale 8 produced %d on/off transitions vs %d unscaled; faster churn must cycle much more", fast, base)
	}
	if nd := buildWorld(t, 21, 1, 0).peers[0]; nd.ChurnScale() != 1 {
		t.Errorf("default churn scale = %v, want 1", nd.ChurnScale())
	}
}

func TestSetChurnScaleRejectsNonPositive(t *testing.T) {
	w := buildWorld(t, 22, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("SetChurnScale(0) did not panic")
		}
	}()
	w.peers[0].SetChurnScale(0)
}

// TestLedgerConservation pins the ledger's one shape on one and four
// shards: every per-peer column has a row per node, and each column and
// per-AS tally sums to the scalar the experiment layer reports from. The
// uplink queues are bounded and the busy cap sits below a DSL chunk's
// service time, so the sums must hold across tail drops and rejections.
func TestLedgerConservation(t *testing.T) {
	sum := func(col []int64) int64 {
		var s int64
		for _, v := range col {
			s += v
		}
		return s
	}
	for _, shards := range []int{1, 4} {
		cfg := testConfig()
		cfg.Congestion = access.CongestionModel{QueueDepth: 1}
		cfg.UplinkBusyCap = 200 * time.Millisecond
		w := buildWorldShards(t, 7, 20, 3, cfg, shards)
		w.startAll()
		w.checkEverySecond(t)
		if w.sh != nil {
			w.sh.Run(60 * time.Second)
		} else {
			w.eng.Run(60 * time.Second)
		}
		l := w.net.LedgerView()

		for i, col := range l.peerColumns() {
			if len(*col) != len(w.net.Nodes()) {
				t.Errorf("shards=%d: per-peer column %d has %d rows for %d nodes",
					shards, i, len(*col), len(w.net.Nodes()))
			}
		}
		var rxByAS, intraByAS int64
		for as, v := range l.VideoRxByAS {
			rxByAS += v
			if l.VideoIntraByAS[as] > v {
				t.Errorf("shards=%d: AS %d intra %d exceeds rx %d", shards, as, l.VideoIntraByAS[as], v)
			}
		}
		for _, v := range l.VideoIntraByAS {
			intraByAS += v
		}
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"Σ VideoTx", sum(l.VideoTx), l.VideoTotal},
			{"Σ VideoRx", sum(l.VideoRx), l.VideoTotal},
			{"Σ VideoRxByAS", rxByAS, l.VideoTotal},
			{"Σ VideoIntraByAS", intraByAS, l.VideoIntraAS},
		} {
			if c.got != c.want {
				t.Errorf("shards=%d: %s = %d, scalar says %d", shards, c.name, c.got, c.want)
			}
			if c.want == 0 {
				t.Errorf("shards=%d: %s is zero; the run did not exercise it", shards, c.name)
			}
		}
		if l.VideoIntraAS > l.VideoTotal {
			t.Errorf("shards=%d: VideoIntraAS %d exceeds VideoTotal %d", shards, l.VideoIntraAS, l.VideoTotal)
		}
	}
}
