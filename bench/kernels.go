package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"napawine/internal/access"
	"napawine/internal/analysis"
	"napawine/internal/apps"
	"napawine/internal/chunkstream"
	"napawine/internal/core"
	"napawine/internal/dash"
	"napawine/internal/experiment"
	"napawine/internal/fleet"
	"napawine/internal/overlay"
	"napawine/internal/packet"
	"napawine/internal/policy"
	"napawine/internal/scenario"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/study"
	"napawine/internal/topology"
	"napawine/internal/units"
	"napawine/internal/world"
)

// metric is one named per-layer number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// sink defeats dead-code elimination of kernel results.
var sink int

// kernels times every layer in isolation through its package's exported
// functions. Each kernel repeats until it has run for minTime (zero: one
// iteration, the smoke scale). None depends on the workload; the seed only
// feeds the engines of the overlay and reduce fixtures.
type kernels struct {
	minTime time.Duration
	smoke   bool
	seed    int64
	out     []metric
}

func runKernels(seed int64, minTime time.Duration, smoke bool) ([]metric, error) {
	k := &kernels{minTime: minTime, smoke: smoke, seed: seed}
	k.sim()
	k.sharded()
	k.chunkstream()
	k.policy()
	k.access()
	k.capture()
	for _, f := range []func() error{k.worldAndOverlay, k.reduce, k.fleet, k.dash} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return k.out, nil
}

func (k *kernels) add(name, unit string, v float64) {
	k.out = append(k.out, metric{name, unit, v})
}

// perOp times f(n), which performs n operations, growing n until one call
// lasts minTime, and returns host nanoseconds per operation. State f keeps
// between calls carries over, so set-up done outside f is paid once.
func (k *kernels) perOp(f func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		f(n)
		d := time.Since(start)
		if d >= k.minTime || n >= 1<<28 {
			return float64(d.Nanoseconds()) / float64(n)
		}
		if d < k.minTime/20 {
			n *= 10
		} else {
			n = int(1.2*float64(n)*float64(k.minTime)/float64(d)) + 1
		}
	}
}

// scale picks the fixture size: full, or the smoke miniature.
func (k *kernels) scale(full, smoke int) int {
	if k.smoke {
		return smoke
	}
	return full
}

func (k *kernels) sim() {
	// 64 self-rescheduling events: schedule+fire at a shallow wheel.
	churn := func(e *sim.Engine, pending int, spread time.Duration) {
		rng := rand.New(rand.NewSource(2))
		var fn func()
		fn = func() { e.Schedule(time.Duration(rng.Int63n(int64(spread))), fn) }
		for i := 0; i < pending; i++ {
			fn()
		}
	}
	e := sim.New(1)
	churn(e, 64, time.Second)
	k.add("sim.schedule_fire_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	}))

	// The same with 10⁶ events pending across a minute: every level of
	// the wheel in use, the working set out of cache.
	deep := sim.New(1)
	churn(deep, k.scale(1_000_000, 1_000), time.Minute)
	k.add("sim.deep_queue_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			deep.Step()
		}
	}))

	// After+Cancel leaves a ghost in the wheel until its slot spills; a
	// 1 ms heartbeat stepped every 256 cancels keeps the wheel turning so
	// the ghosts are discarded as they would be in a run.
	c := sim.New(1)
	var beat func()
	beat = func() { c.Schedule(time.Millisecond, beat) }
	beat()
	rng := rand.New(rand.NewSource(3))
	nop := func() {}
	k.add("sim.cancel_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			c.After(time.Duration(rng.Int63n(int64(100*time.Millisecond))), nop).Cancel()
			if i&255 == 255 {
				c.Step()
			}
		}
	}))
}

func (k *kernels) sharded() {
	const lookahead = time.Millisecond
	// One trivial event per window: ticks 2×lookahead apart can never
	// share a window, so windows = ticks and the cost is the barrier's.
	sh := sim.NewSharded(1, 2, lookahead)
	var tick func()
	tick = func() { sh.Shard(0).Schedule(2*lookahead, tick) }
	tick()
	var horizon time.Duration
	k.add("sharded.window_us", "us", k.perOp(func(n int) {
		horizon += time.Duration(n) * 2 * lookahead
		sh.Run(horizon)
	})/1e3)

	// 256 cross-shard sends per window, so the barrier is amortised and
	// what remains is Send, the mailbox flush and the no-op delivery.
	const batch = 256
	ms := sim.NewSharded(1, 2, lookahead)
	nop := func() {}
	var send func()
	send = func() {
		at := ms.Shard(0).Now().Add(lookahead)
		for i := 0; i < batch; i++ {
			ms.Send(0, 1, at, nop)
		}
		ms.Shard(0).Schedule(2*lookahead, send)
	}
	send()
	horizon = 0
	k.add("sharded.send_ns", "ns", k.perOp(func(n int) {
		windows := (n + batch - 1) / batch
		horizon += time.Duration(windows) * 2 * lookahead
		ms.Run(horizon)
	}))
}

func (k *kernels) chunkstream() {
	const window = 90
	rng := rand.New(rand.NewSource(4))
	src := chunkstream.NewBufferMap(1000, window)
	for i := 0; i < window; i++ {
		if rng.Intn(2) == 0 {
			src.Set(chunkstream.ChunkID(1000 + i))
		}
	}
	base, bits := src.Snapshot()
	dst := chunkstream.NewBufferMap(0, window)
	k.add("chunkstream.loadsnapshot_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			dst.LoadSnapshot(base, bits)
		}
	}))
	k.add("chunkstream.has_ns", "ns", k.perOp(func(n int) {
		hits := 0
		for i := 0; i < n; i++ {
			if src.Has(base + chunkstream.ChunkID(i%window)) {
				hits++
			}
		}
		sink += hits
	}))
	slide := chunkstream.NewBufferMap(0, window)
	var head chunkstream.ChunkID
	k.add("chunkstream.set_advance_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			head++
			slide.Set(head + window - 1)
			slide.Advance(head)
		}
	}))
	k.add("chunkstream.missing_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += len(src.Missing(base, base+window))
		}
	}))
}

func (k *kernels) policy() {
	rng := rand.New(rand.NewSource(5))
	prof := apps.PPLive()
	cands := make([]policy.Candidate, 30)
	for i := range cands {
		cands[i] = policy.Candidate{Index: i, Info: policy.Info{
			SameAS:  i%7 == 0,
			SameCC:  i%3 == 0,
			RTT:     time.Duration(10+rng.Intn(300)) * time.Millisecond,
			EstRate: units.BitRate(rng.Intn(20)) * units.Mbps,
		}}
	}
	k.add("policy.pickone_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += policy.PickOne(rng, cands, prof.RequestWeight).Index
		}
	}))
	k.add("policy.sample_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += len(policy.Sample(rng, cands, 8, prof.DiscoveryWeight))
		}
	}))

	// One scheduler round's worth: a 90-chunk pull window, the urgent head
	// a fifth of it. Refilled each round so sort-based strategies never see
	// their own output.
	window := make([]policy.ChunkRef, 90)
	for i := range window {
		window[i] = policy.ChunkRef{ID: int64(1000 + i), Holders: 1 + rng.Intn(12), Urgent: i < 18}
	}
	refs := make([]policy.ChunkRef, len(window))
	for _, name := range []string{"urgent-random", "latest-useful", "rarest", "deadline"} {
		strat, err := policy.StrategyByName(name)
		if err != nil {
			panic(err) // the four registered names; a miss is a bench bug
		}
		k.add("policy.order_ns."+name, "ns", k.perOp(func(n int) {
			for i := 0; i < n; i++ {
				copy(refs, window)
				strat.Order(rng, refs)
			}
		}))
	}
}

func (k *kernels) access() {
	const chunk = 48 * units.KB
	port := access.NewPort(100 * units.Mbps)
	var now sim.Time
	k.add("access.reserve_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			_, now = port.Reserve(now, chunk)
		}
	}))
	full := access.NewPort(512 * units.Kbps)
	full.SetQueueLimit(2)
	full.TryReserve(0, chunk)
	full.TryReserve(0, chunk)
	k.add("access.tryreserve_full_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, _, ok := full.TryReserve(0, chunk); ok {
				sink++
			}
		}
	}))
	sizes := access.Packetize(chunk)
	rng := rand.New(rand.NewSource(6))
	var departs, arrives []sim.Time
	k.add("access.train_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			departs, arrives = access.TrainInto(departs, arrives, sim.Time(i), sizes,
				100*units.Mbps, 6*units.Mbps, 40*time.Millisecond, rng, 2*time.Millisecond)
		}
	}))
}

func (k *kernels) capture() {
	probe := netip.MustParseAddr("10.0.0.1")
	remotes := make([]netip.Addr, 500)
	for i := range remotes {
		remotes[i] = netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	}
	// Inbound video packets from 500 peers in turn, 100 µs apart: the mix
	// a PPLive probe's aggregator spends its time on.
	var ts sim.Time
	next := func(i int) packet.Record {
		ts += sim.Time(100 * time.Microsecond)
		return packet.Record{TS: ts, Src: remotes[i%len(remotes)], Dst: probe, Size: access.PacketPayload, TTL: 110, Kind: packet.Video}
	}
	cap := sniffer.New(probe)
	cap.Attach(analysis.New(probe, analysis.DefaultConfig()))
	cap.Attach(sniffer.NewTallySink(probe))
	k.add("capture.observe_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			cap.Observe(next(i))
		}
	}))
	agg := analysis.New(probe, analysis.DefaultConfig())
	k.add("capture.consume_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			agg.Consume(next(i))
		}
	}))
}

// worldSpec is experiment.Default's world at another population.
func worldSpec(peers int) world.Spec {
	spec := experiment.Default("PPLive").World
	spec.Peers = peers
	return spec
}

// populate adds the world's source, background peers and deferred pool to
// a fresh probe-less network on eng, configured as experiment.Run does.
func populate(eng *sim.Engine, w *world.World, prof *overlay.Profile) (net *overlay.Network, background, deferred []*overlay.Node) {
	cfg := experiment.Default(prof.Name)
	net = overlay.New(eng, w.Topo, overlay.Config{
		Calendar:      chunkstream.NewCalendar(apps.StreamRate, 48*units.KB),
		BufferWindow:  cfg.BufferWindow,
		TrackerBatch:  cfg.TrackerBatch,
		JitterMax:     cfg.JitterMax,
		UplinkBusyCap: cfg.UplinkBusyCap,
	})
	net.AddSource(w.SourceHost, w.SourceLink, prof).ScheduleJoin(0)
	for _, p := range w.Background {
		background = append(background, net.AddNode(p.Host, p.Link, prof))
	}
	for _, p := range w.Deferred {
		deferred = append(deferred, net.AddNode(p.Host, p.Link, prof))
	}
	return net, background, deferred
}

func (k *kernels) worldAndOverlay() error {
	prof := apps.PPLive()
	var w1400, w10k *world.World
	for _, size := range []struct {
		name  string
		peers int
		dst   **world.World
	}{
		{"world.build_ms.1400", k.scale(1400, 100), &w1400},
		{"world.build_ms.10k", k.scale(10_000, 200), &w10k},
	} {
		var err error
		k.add(size.name, "ms", k.perOp(func(n int) {
			for i := 0; i < n && err == nil; i++ {
				*size.dst, err = world.Build(worldSpec(size.peers))
			}
		})/1e6)
		if err != nil {
			return err
		}
	}

	hosts := make([]topology.Host, len(w1400.Background))
	for i, p := range w1400.Background {
		hosts[i] = p.Host
	}
	pair := func(i int) (topology.Host, topology.Host) {
		return hosts[i%len(hosts)], hosts[(i*7919+13)%len(hosts)]
	}
	k.add("topology.delay_ns", "ns", k.perOp(func(n int) {
		var d time.Duration
		for i := 0; i < n; i++ {
			d += w1400.Topo.OneWayDelay(pair(i))
		}
		sink += int(d)
	}))
	k.add("topology.hop_ns", "ns", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += w1400.Topo.HopCount(pair(i))
		}
	}))

	k.add("overlay.populate_ms", "ms", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			net, _, _ := populate(sim.New(k.seed), w10k, prof)
			sink += len(net.Nodes())
		}
	})/1e6)

	// A warmed 300-node swarm: host time per event once partnerships and
	// buffer maps are in steady state, first with stable sessions, then
	// with 5 s sessions so joins, leaves and index writes dominate.
	w300, err := world.Build(worldSpec(k.scale(300, 60)))
	if err != nil {
		return err
	}
	for _, v := range []struct {
		name  string
		churn bool
	}{{"overlay.step_ns", false}, {"overlay.churn_step_ns", true}} {
		eng := sim.New(k.seed)
		_, nodes, _ := populate(eng, w300, prof)
		rng := eng.Rand()
		for _, nd := range nodes {
			first := time.Duration(rng.Int63n(int64(20 * time.Second)))
			if v.churn {
				nd.ScheduleChurn(first, 5*time.Second, 5*time.Second)
			} else {
				nd.ScheduleJoin(first)
			}
		}
		eng.Run(40 * time.Second)
		k.add(v.name, "ns", k.perOp(func(n int) {
			for i := 0; i < n; i++ {
				eng.Step()
			}
		}))
	}

	// scenario.Compile of the flash crowd over a populated 1400+1400 swarm.
	spec, err := scenario.ByName("flashcrowd")
	if err != nil {
		return err
	}
	fw := worldSpec(k.scale(1400, 100))
	fw.ExtraPeers = fw.Peers
	wf, err := world.Build(fw)
	if err != nil {
		return err
	}
	eng := sim.New(k.seed)
	net, background, deferred := populate(eng, wf, prof)
	k.add("scenario.compile_ms", "ms", k.perOp(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = scenario.Compile(spec, scenario.Env{
				Eng: eng, Net: net, Horizon: 2 * time.Minute, Background: background, Deferred: deferred,
			})
		}
	})/1e6)
	return err
}

// reduce times the reduction layers on a real result: the PPLive default
// world (1 400 peers, 44 probes) run for 30 virtual s under the steady
// scenario. By then a PPLive probe has met most of the swarm, so the
// observation set — what every reduction walks — is at its full-run size.
func (k *kernels) reduce() error {
	cfg := experiment.Default("PPLive")
	cfg.Seed = k.seed
	cfg.Duration = 30 * time.Second
	if k.smoke {
		cfg.World.Peers = smokePeers
		cfg.Duration = smokeDuration
	}
	var err error
	if cfg.Scenario, err = scenario.ByName("steady"); err != nil {
		return err
	}
	res, err := experiment.Run(cfg)
	if err != nil {
		return err
	}
	as := core.PaperClassifiers()[0]
	k.add("capture.compute_us", "us", k.perOp(func(n int) {
		for i := 0; i < n; i++ {
			m := core.Compute(res.Observations, core.Download, as, cfg.Contrib, false)
			sink += len(m.Property)
		}
	})/1e3)

	var sum experiment.Summary
	k.add("experiment.reduce_ms", "ms", k.perOp(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			sum = experiment.Summarize(res)
			err = renderTables(io.Discard, res)
		}
	})/1e6)
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	k.add("study.summary_codec_us", "us", k.perOp(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			buf.Reset()
			if err = study.EncodeSummary(&buf, &sum); err == nil {
				_, err = study.DecodeSummaryBytes(buf.Bytes())
			}
		}
	})/1e3)
	return err
}

// fleet times the three worker→coordinator round trips with the documented
// /fleet/v1 JSON bodies over loopback against a live coordinator. Every
// iteration leases a fresh cell, posts one sample event on it and delivers
// its result, so each call takes the path a real worker's does.
func (k *kernels) fleet() error {
	cells := k.scale(4096, 8)
	st := &study.Study{Name: "bench-rtt", Apps: []string{"TVAnts"}, Trials: cells, Duration: study.Duration(time.Second)}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Study: st, Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer coord.Close()
	base := "http://" + coord.Addr() + "/fleet/v1/"
	client := &http.Client{}
	defer client.CloseIdleConnections()
	post := func(path string, in, out any) (time.Duration, error) {
		body, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return 0, fmt.Errorf("fleet kernel: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		return time.Since(start), err
	}

	sample := experiment.SeriesSample{T: 5 * time.Second, Online: 240, Continuity: 0.99, IntraASPct: 12, IntraASValid: true, VideoKbps: 90_000, TrackerUp: true}
	sum := experiment.Summary{App: "TVAnts", Seed: 1, MeanContinuity: 0.99, TableIV: make([]experiment.SummaryCell, 5)}
	var lease, event, result time.Duration
	n := 0
	for n < cells && (n == 0 || lease < k.minTime || event < k.minTime || result < k.minTime) {
		var grant struct {
			Status string `json:"status"`
			Index  int    `json:"index"`
			Digest string `json:"digest"`
			TTLMs  int64  `json:"ttl_ms"`
		}
		d, err := post("lease", map[string]any{"worker": "kernel"}, &grant)
		if err != nil {
			return err
		}
		if grant.Status != fleet.StatusLease {
			return fmt.Errorf("fleet kernel: lease %d answered %q", n, grant.Status)
		}
		lease += d
		var ack struct {
			OK   bool `json:"ok"`
			Done bool `json:"done"`
		}
		d, err = post("event", map[string]any{"worker": "kernel", "index": grant.Index, "kind": "sample", "sample": sample}, &ack)
		if err != nil {
			return err
		}
		event += d
		d, err = post("result", map[string]any{"worker": "kernel", "index": grant.Index, "digest": grant.Digest, "summary": sum}, &ack)
		if err != nil {
			return err
		}
		result += d
		n++
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	k.add("fleet.lease_rtt_us", "us", us(lease))
	k.add("fleet.event_rtt_us", "us", us(event))
	k.add("fleet.result_rtt_us", "us", us(result))
	return nil
}

// dash times the dashboard's per-sample observer cost with nobody
// listening and with two subscribers draining /events. The loop offers
// samples far faster than a run does, so with subscribers it measures the
// marshal-once broadcast including its drop path.
func (k *kernels) dash() error {
	st := &study.Study{Name: "bench-dash", Apps: []string{"TVAnts"}, Scenarios: []study.Scenario{{Name: "steady"}}}
	infos, err := st.RunInfos()
	if err != nil {
		return err
	}
	sample := experiment.SeriesSample{T: 5 * time.Second, Online: 240, Continuity: 0.99, VideoKbps: 90_000, TrackerUp: true}
	for _, subs := range []int{0, 2} {
		ds, err := dash.New("127.0.0.1:0")
		if err != nil {
			return err
		}
		if err := ds.BeginStudy(st); err != nil {
			ds.Close()
			return err
		}
		var bodies []io.ReadCloser
		var drained sync.WaitGroup
		for i := 0; i < subs; i++ {
			resp, err := http.Get("http://" + ds.Addr() + "/events")
			if err != nil {
				ds.Close()
				return err
			}
			bodies = append(bodies, resp.Body)
			drained.Add(1)
			go func() { // ends when ds.Close drops the stream
				defer drained.Done()
				_, _ = io.Copy(io.Discard, resp.Body)
			}()
		}
		k.add(fmt.Sprintf("dash.onsample_ns.%dsub", subs), "ns", k.perOp(func(n int) {
			for i := 0; i < n; i++ {
				ds.OnSample(infos[0], sample)
			}
		}))
		ds.Close()
		drained.Wait()
		for _, b := range bodies {
			b.Close()
		}
	}
	return nil
}
