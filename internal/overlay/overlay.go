// Package overlay implements a mesh-pull P2P live-streaming engine of the
// kind every 2008-era commercial client (PPLive, SopCast, TVAnts) is known
// to embody: a tracker hands out peer candidates, peers gossip and keep a
// partner set, advertise holdings with buffer maps, and pull missing chunks
// from partners before their playout deadline.
//
// The engine is parameterized by a Profile whose policy knobs — discovery
// weighting, request weighting, partner-retention weighting, contact rate,
// partner-set size — are precisely the "network awareness" the paper's
// methodology is designed to expose from the traffic. internal/apps ships
// three profiles emulating the measured behaviours of PPLive, SopCast and
// TVAnts.
//
// All activity runs inside one deterministic sim.Engine. Packet records are
// materialized only at nodes that carry a sniffer (the NAPA-WINE probes),
// which keeps large swarms tractable while preserving exact per-packet
// observables where it matters.
package overlay

import (
	"fmt"
	"slices"
	"time"

	"napawine/internal/access"
	"napawine/internal/chunkstream"
	"napawine/internal/policy"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/topology"
	"napawine/internal/units"
)

// PeerID identifies a node inside one Network.
type PeerID int32

// Profile is the behavioural parameter set of one application. See
// internal/apps for the three paper profiles.
type Profile struct {
	Name string

	// Partner management.
	PartnerTarget int           // partners a node tries to hold
	MaxPartners   int           // hard acceptance cap (≥ PartnerTarget)
	DropInterval  time.Duration // how often the worst partner is churned out

	// Discovery.
	ContactInterval time.Duration // gossip handshakes with new random peers
	NeighborListMax int           // contacted peers remembered (keepalive set)

	// Signaling.
	SignalingInterval time.Duration // buffer-map push period
	KeepaliveFanout   int           // neighbors pinged per signaling round

	// Pull scheduling.
	PullDelay   int // chunks behind the live edge before pulling
	MaxInflight int // outstanding chunk requests
	// BestFill is the greedy component of the scheduler: up to this many
	// chunks per tick are pulled directly from the highest-RequestWeight
	// partner that advertises them, before the strategy-ordered pass shops
	// the rest around. It is how a strongly weighted partner (a fast peer,
	// or a same-AS peer under an AS-biased profile) actually ends up
	// carrying a disproportionate share of bytes. Zero disables it.
	BestFill int

	// ChunkStrategy orders each scheduler round's missing-chunk requests
	// (see policy.Hybrid); its AwareWeight sets the congestion-aware
	// partner discount. The zero value is the member "hybrid", a pure
	// shuffle, not policy.DefaultStrategy(): a profile sets it explicitly.
	ChunkStrategy policy.Hybrid

	// Awareness knobs (the subject of the whole study).
	DiscoveryWeight policy.Weight // choosing partners among candidates
	RequestWeight   policy.Weight // choosing whom to pull a chunk from
	RetainWeight    policy.Weight // valuing partners at churn time
}

// Validate reports why a profile cannot run, nil when it can, so a caller
// that edits a profile can check it before any world is built.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("overlay: profile without a name")
	case p.PartnerTarget <= 0 || p.MaxPartners < p.PartnerTarget:
		return fmt.Errorf("overlay: %s: bad partner bounds %d/%d", p.Name, p.PartnerTarget, p.MaxPartners)
	case p.ContactInterval <= 0 || p.SignalingInterval <= 0:
		return fmt.Errorf("overlay: %s: non-positive intervals", p.Name)
	case p.PullDelay < 1 || p.MaxInflight < 1:
		return fmt.Errorf("overlay: %s: bad pull shape", p.Name)
	case p.DropInterval <= 0:
		return fmt.Errorf("overlay: %s: bad timers", p.Name)
	case p.DiscoveryWeight == nil || p.RequestWeight == nil || p.RetainWeight == nil:
		return fmt.Errorf("overlay: %s: nil policy", p.Name)
	}
	return nil
}

// Every profile runs its pull scheduler on the same tick, pulls over the
// same window and gives up on a request after the same wait; the three
// clients differ in how far behind live they pull (PullDelay), not in these.
const (
	scheduleInterval = 500 * time.Millisecond // chunk scheduler tick
	pullWindow       = 10                     // width of the pull range, in chunks
	requestTimeout   = 4 * time.Second        // an unanswered chunk request expires
)

// validate asserts Validate where a profile is used: a profile that cannot
// run this late is a programming error in experiment setup.
func (p *Profile) validate() {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
}

// DefaultContactFanout is the number of tracker candidates one gossip
// round (contactTick) examines before settling on a single peer exchange.
const DefaultContactFanout = 3

// Config carries network-wide constants.
type Config struct {
	Calendar     chunkstream.Calendar
	BufferWindow int           // chunks each node's buffer map covers
	TrackerBatch int           // candidates per tracker query
	JitterMax    time.Duration // per-packet forwarding jitter bound
	// UplinkBusyCap is the backlog beyond which a node rejects chunk
	// requests instead of queueing them; rejections are what steer
	// requesters toward fast peers.
	UplinkBusyCap time.Duration
	// Congestion bounds each node's uplink transfer queue (tail-drop loss
	// past the depth) and switches the scheduler's congestion machinery
	// on: per-partner exponential backoff after timeouts, immediate
	// retransmit of lost chunks, and the observed-loss EWMA that
	// congestion-aware strategies fold into partner weighting. The zero
	// value is the historical unbounded model and leaves the event and
	// RNG sequence byte-identical.
	Congestion access.CongestionModel
}

func (c *Config) validate() {
	if c.BufferWindow <= 0 {
		panic("overlay: non-positive buffer window")
	}
	if c.BufferWindow > chunkstream.MaxWindow {
		panic(fmt.Sprintf("overlay: BufferWindow %d is past chunkstream.MaxWindow %d, the widest map an advert carries",
			c.BufferWindow, chunkstream.MaxWindow))
	}
	if c.TrackerBatch <= 0 {
		panic("overlay: non-positive tracker batch")
	}
	if c.UplinkBusyCap <= 0 {
		panic("overlay: non-positive uplink busy cap")
	}
	if err := c.Congestion.Validate(); err != nil {
		panic("overlay: " + err.Error())
	}
}

// wire-size constants for control traffic (bytes, representative of the
// UDP payloads observed for these clients).
const (
	handshakeSize = 80 * units.Byte
	requestSize   = 60 * units.Byte
	rejectSize    = 40 * units.Byte
	keepaliveSize = 48 * units.Byte
	// peer-exchange messages carry peer lists and dominate PPLive's
	// signaling volume. Entries per message are bounded so a PX packet
	// always fits one MTU and stays clearly below video-packet size —
	// larger lists are split across successive gossip rounds, as the
	// real clients do.
	gossipHeader     = 40 * units.Byte
	gossipPerPeer    = 6 * units.Byte
	gossipMaxEntries = 100
)

// Ledger is the ground-truth accounting kept by the network itself,
// independent of what probes can see. The analysis layer never reads it for
// inference; tests use it to validate what the passive methodology
// recovered.
type Ledger struct {
	// Totals per node, indexed by PeerID: ids are dense (AddNode hands out
	// len(nodes) and grows every shard's columns to cover the new id).
	VideoRx, VideoTx []int64

	// Swarm-wide totals: every number the experiment layer reports comes
	// from these scalars and the per-AS tallies below, never from a
	// per-peer column.
	SignalTotal       int64
	ChunksServedTotal int64
	// Congestion accounting: transfers an uplink queue tail-dropped, lost
	// chunks a scheduler re-requested, and partners put into backoff. All
	// zero under the default unbounded congestion model.
	DropsTotal       int64
	RetransmitsTotal int64
	BackoffsTotal    int64

	// Running swarm-wide video totals, split by whether the transfer stayed
	// inside one AS. Time-series samplers difference these between buckets
	// to report per-bucket locality.
	VideoTotal   int64
	VideoIntraAS int64

	// Per-AS video received by peers in each AS, total and intra-AS — the
	// per-AS counterpart of the two scalars above, so samplers can report
	// each AS's locality share over time (the partition scenario's
	// observable). The key space is the AS count (tens), not the peer
	// count.
	VideoRxByAS    map[topology.ASN]int64
	VideoIntraByAS map[topology.ASN]int64

	// DiffusionDelaySum accumulates, over every first-time chunk delivery
	// to a peer, the virtual time between the chunk's calendar birth and
	// its arrival; DiffusionChunks counts those deliveries. Their ratio is
	// the swarm's mean diffusion delay — the Mathieu–Perino figure of merit
	// that separates the chunk-scheduling strategies.
	DiffusionDelaySum time.Duration
	DiffusionChunks   int64

	// SourceVideoTx counts video bytes uploaded by whichever node was the
	// stream origin at send time — accumulated at transfer time, so a
	// source-failover handoff attributes each byte to the node that was
	// actually injecting when it moved (VideoTx[id] cannot distinguish a
	// backup's pre-promotion peer traffic from its injection duty).
	SourceVideoTx int64
}

func newLedger() *Ledger {
	return &Ledger{
		VideoRxByAS:    make(map[topology.ASN]int64),
		VideoIntraByAS: make(map[topology.ASN]int64),
	}
}

// peerColumns lists the per-peer columns, for grow and merge.
func (l *Ledger) peerColumns() [2]*[]int64 {
	return [2]*[]int64{&l.VideoRx, &l.VideoTx}
}

// grow extends every per-peer column to cover ids below n.
func (l *Ledger) grow(n int) {
	for _, col := range l.peerColumns() {
		if len(*col) < n {
			*col = append(*col, make([]int64, n-len(*col))...)
		}
	}
}

func (l *Ledger) video(from, to PeerID, n int64, toAS topology.ASN, sameAS bool) {
	l.VideoTx[from] += n
	l.VideoRx[to] += n
	l.VideoTotal += n
	l.VideoRxByAS[toAS] += n
	if sameAS {
		l.VideoIntraAS += n
		l.VideoIntraByAS[toAS] += n
	}
}

// shardCtx is the execution context of one shard: its engine (clock + RNG
// stream), its slice of the ground-truth ledger, its live-peer list and the
// scratch buffers its events run inside. With one shard the single context
// wraps the network's engine and ledger, and every code path reduces to
// the historical serial behaviour.
type shardCtx struct {
	idx    int
	eng    *sim.Engine
	ledger *Ledger

	online []*Node // compact set for O(1) random tracker sampling

	// Tracker-query scratch, reused across calls: each shard is
	// single-threaded and a query's result is consumed before the next
	// query starts, so one buffer per shard keeps every gossip round
	// allocation-free. Callers must not retain the returned slice.
	sampleOut []*Node

	// Chunk-serve scratch (transfer.go): one packetization of the
	// network's constant chunk size plus the per-transfer packet-train
	// instants. serveChunk runs to completion inside a single event and
	// hands only scalars to the delivery event, so the buffers are free
	// again before any other transfer can start.
	trainSizes   []units.ByteSize
	trainDeparts []sim.Time
	trainArrives []sim.Time

	// Selection scratch (node.go): every scheduler tick, chunk request and
	// partner-churn round of every node on the shard runs inside these, so
	// steady-state selection allocates nothing and the buffers stay hot in
	// cache instead of being cold lines on each node. One set per shard is
	// enough for the same reason as above: a tick runs to completion, and
	// what it calls on other nodes — dropPartner/removePartner, handshake
	// and addPartner, and onReject, which a same-shard serveChunk (an event
	// of its own) calls synchronously — touches none of them. Within a tick
	// the uses are disjoint: scheduleTick walks expired, then refs, while
	// requestChunk fills scorer and reqOrder; dropDeadPartners is done with
	// dropIDs before churnTick scores; refillPartners walks the scorer's
	// Sample result while it handshakes.
	scorer   policy.Scorer
	reqOrder []int32               // partner-table positions in candidate order of one requestChunk round
	refs     []policy.ChunkRef     // missing chunks of one scheduler tick
	expired  []chunkstream.ChunkID // timed-out requests of one tick
	dropIDs  []PeerID              // dead partners collected before dropping
}

// Network owns every node of one emulated swarm.
type Network struct {
	// Eng is the global engine: with one shard, the engine everything runs
	// on; with several, the barrier-phase engine whose events may touch
	// state on any shard (see sim.Sharded). Scenario timelines, samplers
	// and capture flushes schedule here.
	Eng  *sim.Engine
	Topo *topology.Topology
	Cfg  Config

	// sharded is the lockstep coordinator; nil when the network was built
	// with New on a bare engine. shards always holds at least one context.
	sharded *sim.Sharded
	shards  []*shardCtx
	shardOf map[topology.ASN]int

	// onlineSnaps[j] is a snapshot of shard j's online list, refreshed by
	// a periodic global event. During a window, shards sample tracker
	// candidates on other shards from these (slightly stale, like a real
	// tracker's view) because the live lists over there are in motion.
	// Written only at barriers, read-only during windows.
	onlineSnaps [][]*Node

	nodes  []*Node
	source *Node
	// trackerPaused models a tracker outage: queries return nothing, so
	// discovery stalls while established partnerships keep streaming.
	// Toggled only by global (barrier-phase) events, read by shards.
	trackerPaused bool
}

// What the overlay schedules for a node is a pointer-free sim.Record. The
// four periodic ticks name their node in Node and its session epoch in A
// (Node.tick); a request-serve names responder and requester in Node and
// Peer and the chunk in A; a chunk delivery names requester and sender, the
// chunk in A and the burst duration in B; an arrival or departure names its
// node, with Peer 1 and the mean on- and off-time in A and B in a churn
// cycle (Node.churnCycle). Scenario actions, samplers and flushes, and
// cross-shard messages stay closures.
const (
	evSignaling sim.Kind = iota + 1
	evSchedule
	evContact
	evChurn
	evServe
	evDeliver
	evArrive
	evDepart
)

// dispatch executes one record on the engine of the shard that owns r.Node.
func (n *Network) dispatch(r sim.Record) {
	nd := n.nodes[r.Node]
	switch r.Kind {
	case evServe:
		nd.serveChunk(n.nodes[r.Peer], chunkstream.ChunkID(r.A))
	case evDeliver:
		nd.onChunkDelivered(PeerID(r.Peer), chunkstream.ChunkID(r.A), time.Duration(r.B))
	case evArrive, evDepart:
		nd.churnCycle(r)
	default:
		nd.tick(r)
	}
}

// trackerRefresh is how often the cross-shard tracker snapshots are
// rebuilt. One virtual second of staleness is far below the session
// dynamics the tracker view feeds (multi-second gossip and churn
// intervals) and is, if anything, fresher than a real tracker's view.
const trackerRefresh = time.Second

// New builds an empty network on the given engine and topology. The whole
// swarm runs serially on that engine — the historical single-core mode.
func New(eng *sim.Engine, topo *topology.Topology, cfg Config) *Network {
	cfg.validate()
	n := &Network{Eng: eng, Topo: topo, Cfg: cfg}
	n.shards = []*shardCtx{{eng: eng, ledger: newLedger()}}
	eng.SetDispatch(n.dispatch)
	return n
}

// NewSharded builds an empty network on a sharded coordinator. shardOf
// assigns every peer-hosting AS to a shard in [0, sh.N()); each AS must be
// kept whole — the coordinator's lookahead is derived from *inter*-AS
// delays. With sh.N() == 1 the network is identical to New on sh.Global(),
// byte-for-byte.
func NewSharded(sh *sim.Sharded, topo *topology.Topology, cfg Config, shardOf map[topology.ASN]int) *Network {
	cfg.validate()
	n := &Network{Eng: sh.Global(), Topo: topo, Cfg: cfg, sharded: sh, shardOf: shardOf}
	n.shards = make([]*shardCtx, sh.N())
	for i := range n.shards {
		n.shards[i] = &shardCtx{idx: i, eng: sh.Shard(i), ledger: newLedger()}
		sh.Shard(i).SetDispatch(n.dispatch)
	}
	if sh.N() > 1 {
		n.onlineSnaps = make([][]*Node, sh.N())
		n.Eng.Every(trackerRefresh, trackerRefresh, n.refreshTrackerSnaps)
	}
	return n
}

// LedgerView returns the swarm-wide ground-truth accounting. With one
// shard it is the live ledger itself; with several it is a fresh merge of
// the per-shard ledgers, valid only at barrier time (call it from global
// events or after the run, never from shard events).
func (n *Network) LedgerView() *Ledger {
	if len(n.shards) == 1 {
		return n.shards[0].ledger
	}
	m := newLedger()
	for _, sc := range n.shards {
		m.merge(sc.ledger)
	}
	return m
}

// merge folds src into l, growing l's per-peer columns to src's length
// first.
func (l *Ledger) merge(src *Ledger) {
	l.grow(len(src.VideoRx))
	dst := l.peerColumns()
	for c, col := range src.peerColumns() {
		for id, v := range *col {
			(*dst[c])[id] += v
		}
	}
	l.SignalTotal += src.SignalTotal
	l.ChunksServedTotal += src.ChunksServedTotal
	l.DropsTotal += src.DropsTotal
	l.RetransmitsTotal += src.RetransmitsTotal
	l.BackoffsTotal += src.BackoffsTotal
	l.VideoTotal += src.VideoTotal
	l.VideoIntraAS += src.VideoIntraAS
	for as, v := range src.VideoRxByAS {
		l.VideoRxByAS[as] += v
	}
	for as, v := range src.VideoIntraByAS {
		l.VideoIntraByAS[as] += v
	}
	l.DiffusionDelaySum += src.DiffusionDelaySum
	l.DiffusionChunks += src.DiffusionChunks
	l.SourceVideoTx += src.SourceVideoTx
}

// shardFor resolves the shard context hosting an AS. An AS outside the
// partition map, and every AS of a network built with New, falls to shard 0.
func (n *Network) shardFor(as topology.ASN) *shardCtx {
	return n.shards[n.shardOf[as]]
}

// refreshTrackerSnaps republishes every shard's online list for the other
// shards to sample from. Runs as a global event: shard goroutines are
// parked, so the live lists are stable and the snapshot swap is safe.
func (n *Network) refreshTrackerSnaps() {
	for i, sc := range n.shards {
		snap := n.onlineSnaps[i][:0]
		n.onlineSnaps[i] = append(snap, sc.online...)
	}
}

// Nodes returns all nodes ever added, in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// OnlineCount reports how many nodes are currently online.
func (n *Network) OnlineCount() int {
	total := 0
	for _, sc := range n.shards {
		total += len(sc.online)
	}
	return total
}

// Source returns the stream source node, nil before AddSource.
func (n *Network) Source() *Node { return n.source }

// AddNode creates a node. It does not join the overlay until Join (or
// ScheduleChurn) is called, so the experiment layer controls arrival times.
// Ids are handed out densely from 0; past MaxPeerID, the most a partner
// record can name, AddNode panics.
func (n *Network) AddNode(host topology.Host, link access.Link, prof *Profile) *Node {
	prof.validate()
	if len(n.nodes) > MaxPeerID {
		panic(fmt.Sprintf("overlay: peer ids are limited to %d", MaxPeerID))
	}
	node := &Node{
		net:      n,
		sc:       n.shardFor(host.AS),
		ID:       PeerID(len(n.nodes)),
		Host:     host,
		Link:     link,
		Profile:  prof,
		up:       access.NewPort(link.Spec.Up),
		down:     access.NewPort(link.Spec.Down),
		onlineAt: -1,
	}
	// Only the uplink carries the bound: the pull protocol serializes video
	// through the responder's uplink port, so that is where a congested
	// queue drops chunks.
	if d := n.Cfg.Congestion.QueueDepth; d > 0 {
		node.up.SetQueueLimit(d)
	}
	n.nodes = append(n.nodes, node)
	for _, sc := range n.shards {
		sc.ledger.grow(len(n.nodes))
	}
	return node
}

// congestionOn reports whether the bounded-queue congestion machinery —
// tail-drop loss, backoff, retransmit, loss EWMA — is active. Every new
// congestion code path gates on it so the default model stays
// byte-identical.
func (n *Network) congestionOn() bool { return n.Cfg.Congestion.Enabled() }

// AddSource creates the stream origin: a node that natively holds every
// chunk the calendar has produced and never pulls. Only one source is
// supported (the paper's channel has a single injection point).
func (n *Network) AddSource(host topology.Host, link access.Link, prof *Profile) *Node {
	if n.source != nil {
		panic("overlay: second source")
	}
	node := n.AddNode(host, link, prof)
	node.isSource = true
	n.source = node
	return node
}

// PromoteSource hands the stream origin over to backup: the previous
// source (if any) stops counting as origin, backup natively holds every
// chunk the calendar has produced from now on, and the tracker advertises
// it like any online peer. A promoted backup that is offline — churned out,
// or retired by the failover that killed the old source — is brought back
// online immediately (a blocked backup joins when its partition heals).
// Workload scenarios use this as the source-failover handoff hook; callers
// are expected to take the old source offline (Retire) beforehand.
func (n *Network) PromoteSource(backup *Node) {
	if backup.isSource {
		return
	}
	if old := n.source; old != nil {
		old.isSource = false
	}
	backup.isSource = true
	n.source = backup
	if !backup.online {
		// The promotion overrides a retirement: the operator turned the
		// backup injection point on, whatever the viewer behind it did.
		backup.retired = false
		backup.Join()
	}
}

// AttachSniffer equips a node with a probe capture and returns the node's
// sniffer.Spool: records for every packet crossing the node's access link
// are staged there, and handed to the spool's capture as they become final.
// FlushCaptures hands over the rest once the run has ended.
func (n *Network) AttachSniffer(node *Node) *sniffer.Spool {
	if node.spool == nil {
		node.spool = sniffer.NewSpool(sniffer.New(node.Host.Addr))
	}
	return node.spool
}

// FlushCaptures drains every probe spool into its capture in timestamp
// order. Call once after the run.
func (n *Network) FlushCaptures() {
	for _, node := range n.nodes {
		if node.spool != nil {
			node.spool.Drain()
		}
	}
}

// FlushCapturesBefore drains spooled records with timestamps strictly
// before the current virtual time into the captures. Safe at any instant:
// an event executing at time t only ever emits records stamped ≥ t, so
// everything older than "now" is final. Each spool already drains itself
// as it fills, so this bounds no memory; it hands every probe's final
// records over at one common instant.
func (n *Network) FlushCapturesBefore() {
	cutoff := n.Eng.Now()
	for _, node := range n.nodes {
		if node.spool != nil {
			node.spool.DrainBefore(cutoff)
		}
	}
}

// SetTrackerPaused pauses or resumes the tracker. While paused every query
// comes back empty — peers cannot discover new partners but keep whatever
// partnerships they already hold. Workload scenarios use this to model
// tracker outage windows.
func (n *Network) SetTrackerPaused(paused bool) { n.trackerPaused = paused }

// TrackerPaused reports whether the tracker is currently paused.
func (n *Network) TrackerPaused() bool { return n.trackerPaused }

// trackerSample returns up to k distinct online nodes other than asker,
// uniformly at random. Commercial trackers return random subsets; locality
// bias, where it exists, is applied by the client (its DiscoveryWeight).
// The result aliases a per-shard scratch buffer: it is valid until the
// next query on that shard and must not be retained.
//
// Under sharding the asker's shard samples its own live list plus the
// published snapshots of the other shards — the snapshot staleness models
// a tracker whose view lags reality, and a stale candidate that has since
// gone offline is weeded out at contact time like any departed peer.
func (n *Network) trackerSample(asker *Node, k int) []*Node {
	sc := asker.sc
	total := len(sc.online)
	for j := range n.onlineSnaps { // none with one shard
		if j != sc.idx {
			total += len(n.onlineSnaps[j])
		}
	}
	if n.trackerPaused || k <= 0 || total == 0 {
		return nil
	}
	rng := sc.eng.Rand()
	// Partial Fisher-Yates over a copy of indexes would cost O(online);
	// sample with rejection instead, bounded to a few attempts per slot.
	// Duplicates are found by scanning the result (at most k pointers; a map
	// here would allocate on every gossip round of every node) and compared
	// as pointers: a drawn node is not loaded unless its caller uses it.
	out := sc.sampleOut[:0]
	attempts := 0
	for len(out) < k && attempts < 8*k {
		attempts++
		cand := n.trackerEntry(sc, rng.Intn(total))
		if cand == asker || slices.Contains(out, cand) {
			continue
		}
		out = append(out, cand)
	}
	sc.sampleOut = out
	return out
}

// trackerEntry resolves one index of the tracker's virtual candidate list:
// the asker shard's live list first, then the other shards' snapshots in
// shard order.
func (n *Network) trackerEntry(sc *shardCtx, i int) *Node {
	if i < len(sc.online) {
		return sc.online[i]
	}
	i -= len(sc.online)
	for j := range n.onlineSnaps {
		if j == sc.idx {
			continue
		}
		if i < len(n.onlineSnaps[j]) {
			return n.onlineSnaps[j][i]
		}
		i -= len(n.onlineSnaps[j])
	}
	panic("overlay: tracker index out of range")
}

func (n *Network) markOnline(node *Node) {
	sc := node.sc
	node.onlineIdx = int32(len(sc.online))
	sc.online = append(sc.online, node)
}

func (n *Network) markOffline(node *Node) {
	sc := node.sc
	idx := node.onlineIdx
	last := len(sc.online) - 1
	sc.online[idx] = sc.online[last]
	sc.online[idx].onlineIdx = idx
	sc.online = sc.online[:last]
}

// NodeByID returns the node with the given id.
func (n *Network) NodeByID(id PeerID) *Node { return n.nodes[id] }
