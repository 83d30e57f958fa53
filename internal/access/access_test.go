package access

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"napawine/internal/sim"
	"napawine/internal/units"
)

func TestHighBandwidthThreshold(t *testing.T) {
	if !LAN100.HighBandwidth() {
		t.Error("100Mbps LAN should be high-bw")
	}
	if DSL22.HighBandwidth() {
		t.Error("22/1.8 DSL should not be high-bw (uplink 1.8Mbps)")
	}
	exactly10 := Link{Spec: units.Symmetric(10 * units.Mbps)}
	if exactly10.HighBandwidth() {
		t.Error("threshold is strict: exactly 10Mbps is not high-bw")
	}
}

func TestConnectivityMatrix(t *testing.T) {
	open := Link{}
	nat := Link{NAT: true}
	fw := Link{Firewall: true}
	natfw := Link{NAT: true, Firewall: true}

	cases := []struct {
		name      string
		from, to  Link
		canAccept bool
	}{
		{"open->open", open, open, true},
		{"open->nat", open, nat, true},
		{"nat->open", nat, open, true},
		{"nat->nat", nat, nat, false},
		{"any->fw", open, fw, false},
		{"nat->fw", nat, fw, false},
		{"fw->open", fw, open, true},
		{"fw->nat", fw, nat, false},
		{"natfw->open", natfw, open, true},
		{"open->natfw", open, natfw, false},
	}
	for _, c := range cases {
		if got := c.to.AcceptsFrom(c.from); got != c.canAccept {
			t.Errorf("%s: AcceptsFrom = %v, want %v", c.name, got, c.canAccept)
		}
	}
	if !Reachable(fw, open) {
		t.Error("fw peer should reach open peer (outbound)")
	}
	if Reachable(fw, natfw) {
		t.Error("fw and nat+fw peers should be mutually unreachable")
	}
}

func TestPortFIFO(t *testing.T) {
	p := NewPort(1 * units.Mbps) // 125000 B/s
	s1, e1 := p.Reserve(0, 125*units.KB)
	if s1 != 0 || e1 != sim.Time(time.Second) {
		t.Fatalf("first reservation (%v,%v), want (0,1s)", s1, e1)
	}
	// Second reservation queues behind the first.
	s2, e2 := p.Reserve(0, 125*units.KB)
	if s2 != sim.Time(time.Second) || e2 != sim.Time(2*time.Second) {
		t.Fatalf("second reservation (%v,%v), want (1s,2s)", s2, e2)
	}
	// A reservation after the port drained starts immediately.
	s3, _ := p.Reserve(sim.Time(5*time.Second), units.KB)
	if s3 != sim.Time(5*time.Second) {
		t.Fatalf("post-idle reservation starts at %v, want 5s", s3)
	}
}

func TestPortBacklogAndQueue(t *testing.T) {
	p := NewPort(1 * units.Mbps)
	if p.Backlog(0) != 0 || p.Queued(0) != 0 {
		t.Error("fresh port should be idle")
	}
	p.Reserve(0, 125*units.KB) // busy until 1s
	p.Reserve(0, 125*units.KB) // busy until 2s
	if got := p.Backlog(0); got != 2*time.Second {
		t.Errorf("backlog = %v, want 2s", got)
	}
	if got := p.Queued(0); got != 2 {
		t.Errorf("queued = %d, want 2", got)
	}
	if got := p.Backlog(sim.Time(3 * time.Second)); got != 0 {
		t.Errorf("drained backlog = %v, want 0", got)
	}
	if got := p.Queued(sim.Time(3 * time.Second)); got != 0 {
		t.Errorf("drained queue = %d, want 0", got)
	}
	// Two ports per peer: a fifth word would move both to the 48-byte class.
	if got := unsafe.Sizeof(Port{}); got != 32 {
		t.Errorf("Port is %d bytes, want 32", got)
	}
}

func TestPortZeroRatePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"NewPort(0)": func() { NewPort(0) },
		"SetRate(0)": func() { NewPort(units.Mbps).SetRate(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPacketize(t *testing.T) {
	if got := Packetize(0); got != nil {
		t.Errorf("Packetize(0) = %v, want nil", got)
	}
	one := Packetize(100 * units.Byte)
	if len(one) != 1 || one[0] != 100*units.Byte {
		t.Errorf("Packetize(100B) = %v", one)
	}
	exact := Packetize(2 * PacketPayload)
	if len(exact) != 2 || exact[0] != PacketPayload || exact[1] != PacketPayload {
		t.Errorf("Packetize(2*MTU) = %v", exact)
	}
	ragged := Packetize(2*PacketPayload + 7)
	if len(ragged) != 3 || ragged[2] != 7*units.Byte {
		t.Errorf("Packetize ragged = %v", ragged)
	}
}

// Property: packetization conserves bytes and only the last packet is short.
func TestPacketizeConservationProperty(t *testing.T) {
	f := func(kb uint16) bool {
		size := units.ByteSize(kb) * units.KB
		pkts := Packetize(size)
		var sum units.ByteSize
		for i, p := range pkts {
			sum += p
			if i < len(pkts)-1 && p != PacketPayload {
				return false
			}
			if p <= 0 {
				return false
			}
		}
		return sum == size || (size == 0 && len(pkts) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The core §III-B observable: the minimum receiver-side IPG inside a chunk
// train equals the serialization time of a full packet at the bottleneck.
func TestTrainIPGReflectsBottleneck(t *testing.T) {
	cases := []struct {
		name     string
		up, down units.BitRate
		wantIPG  time.Duration
	}{
		{"100M->100M", 100 * units.Mbps, 100 * units.Mbps, 100 * time.Microsecond},
		{"10M->100M", 10 * units.Mbps, 100 * units.Mbps, time.Millisecond},
		{"100M->10M", 100 * units.Mbps, 10 * units.Mbps, time.Millisecond},
		{"DSL-up->100M", 512 * units.Kbps, 100 * units.Mbps, 19531250 * time.Nanosecond},
	}
	for _, c := range cases {
		sizes := Packetize(40 * units.KB) // 32-packet train
		_, arrives := Train(0, sizes, c.up, c.down, 10*time.Millisecond, nil, 0)
		minIPG := time.Duration(1 << 62)
		for i := 1; i < len(arrives)-1; i++ { // skip final short packet
			if g := arrives[i].Sub(arrives[i-1]); g < minIPG {
				minIPG = g
			}
		}
		if minIPG != c.wantIPG {
			t.Errorf("%s: min IPG = %v, want %v", c.name, minIPG, c.wantIPG)
		}
	}
}

// The classifier boundary: >10 Mbit/s bottleneck gives IPG < 1 ms,
// ≤10 Mbit/s gives IPG ≥ 1 ms — even under forwarding jitter, because
// jitter can only widen gaps above the serialization floor.
func TestTrainIPGClassifierBoundaryUnderJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := Packetize(48 * units.KB)
	for trial := 0; trial < 50; trial++ {
		_, fast := Train(0, sizes, 100*units.Mbps, 100*units.Mbps,
			25*time.Millisecond, rng, 2*time.Millisecond)
		minFast := minGap(fast)
		if minFast >= time.Millisecond {
			t.Fatalf("high-bw path min IPG %v ≥ 1ms under jitter", minFast)
		}
		_, slow := Train(0, sizes, 10*units.Mbps, 100*units.Mbps,
			25*time.Millisecond, rng, 2*time.Millisecond)
		if g := minGap(slow); g < time.Millisecond {
			t.Fatalf("10Mbps path min IPG %v < 1ms", g)
		}
	}
}

func minGap(arrives []sim.Time) time.Duration {
	min := time.Duration(1 << 62)
	for i := 1; i < len(arrives)-1; i++ {
		if g := arrives[i].Sub(arrives[i-1]); g < min {
			min = g
		}
	}
	return min
}

func TestTrainArrivalsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		up := units.BitRate(rng.Int63n(int64(100*units.Mbps))) + units.Kbps
		down := units.BitRate(rng.Int63n(int64(100*units.Mbps))) + units.Kbps
		sizes := Packetize(units.ByteSize(rng.Int63n(int64(100 * units.KB))))
		departs, arrives := Train(0, sizes, up, down,
			time.Duration(rng.Int63n(int64(200*time.Millisecond))),
			rng, time.Duration(rng.Int63n(int64(5*time.Millisecond))))
		for i := 1; i < len(arrives); i++ {
			if arrives[i] < arrives[i-1] {
				t.Fatal("arrivals not monotone")
			}
			if departs[i] < departs[i-1] {
				t.Fatal("departures not monotone")
			}
		}
		for i := range arrives {
			if arrives[i] < departs[i] {
				t.Fatal("packet arrived before it departed")
			}
		}
	}
}

func TestTrainEmpty(t *testing.T) {
	d, a := Train(0, nil, units.Mbps, units.Mbps, time.Millisecond, nil, 0)
	if len(d) != 0 || len(a) != 0 {
		t.Error("empty train should produce no packets")
	}
}

func TestTableIProfiles(t *testing.T) {
	// The profile constants must match Table I's spec strings.
	for name, c := range map[string]struct {
		link Link
		want string
	}{
		"DSL4":  {DSL4, "4/0.384"},
		"DSL6":  {DSL6, "6/0.512"},
		"DSL8":  {DSL8, "8/0.384"},
		"DSL22": {DSL22, "22/1.8"},
		"DSL25": {DSL25, "2.5/0.384"},
		"CATV6": {CATV6, "6/0.512"},
	} {
		if got := c.link.Spec.String(); got != c.want {
			t.Errorf("%s = %s, want %s", name, got, c.want)
		}
	}
	if !LAN100.HighBandwidth() || !LAN1000.HighBandwidth() {
		t.Error("institutional profiles must be high-bw")
	}
	for _, l := range []Link{DSL4, DSL6, DSL8, DSL22, DSL25, CATV6} {
		if l.HighBandwidth() {
			t.Errorf("home profile %v should not be high-bw", l.Spec)
		}
	}
}

// BenchmarkTrain48KB measures the steady-state transfer hot path the
// simulator runs per served chunk: TrainInto refilling caller-owned
// scratch, as overlay.serveChunk does. Allocates only on the first
// iteration.
func BenchmarkTrain48KB(b *testing.B) {
	sizes := PacketizeInto(nil, 48*units.KB)
	rng := rand.New(rand.NewSource(1))
	var departs, arrives []sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		departs, arrives = TrainInto(departs, arrives, 0, sizes,
			100*units.Mbps, 100*units.Mbps, 20*time.Millisecond, rng, time.Millisecond)
	}
}

// TestTrainIntoReusesScratch pins the scratch contract: refilling dirty
// caller-owned slices yields exactly what a fresh Train call computes, and
// large-enough scratch is reused in place rather than reallocated.
func TestTrainIntoReusesScratch(t *testing.T) {
	sizes := PacketizeInto(nil, 48*units.KB)
	wantDep, wantArr := Train(100, sizes, 10*units.Mbps, 6*units.Mbps,
		30*time.Millisecond, rand.New(rand.NewSource(7)), 2*time.Millisecond)

	dirty := func(n int) []sim.Time {
		s := make([]sim.Time, n)
		for i := range s {
			s[i] = sim.Time(-1)
		}
		return s
	}
	dep, arr := dirty(len(sizes)+5), dirty(len(sizes)+5)
	depBase, arrBase := &dep[0], &arr[0]
	gotDep, gotArr := TrainInto(dep, arr, 100, sizes, 10*units.Mbps, 6*units.Mbps,
		30*time.Millisecond, rand.New(rand.NewSource(7)), 2*time.Millisecond)

	if len(gotDep) != len(wantDep) || len(gotArr) != len(wantArr) {
		t.Fatalf("lengths differ: got %d/%d, want %d/%d", len(gotDep), len(gotArr), len(wantDep), len(wantArr))
	}
	for i := range wantDep {
		if gotDep[i] != wantDep[i] || gotArr[i] != wantArr[i] {
			t.Fatalf("packet %d differs: got (%v, %v), want (%v, %v)", i, gotDep[i], gotArr[i], wantDep[i], wantArr[i])
		}
	}
	if &gotDep[0] != depBase || &gotArr[0] != arrBase {
		t.Error("TrainInto reallocated despite sufficient scratch capacity")
	}

	// Undersized scratch must grow, not truncate.
	gotDep, gotArr = TrainInto(make([]sim.Time, 0, 1), nil, 100, sizes, 10*units.Mbps, 6*units.Mbps,
		30*time.Millisecond, rand.New(rand.NewSource(7)), 2*time.Millisecond)
	for i := range wantDep {
		if gotDep[i] != wantDep[i] || gotArr[i] != wantArr[i] {
			t.Fatalf("grown scratch packet %d differs", i)
		}
	}
}

// trainReference is the per-packet form of Train: the three serialization
// times computed for every packet. TrainInto computes them once per run of
// equal sizes; this loop is what it must keep agreeing with.
func trainReference(start sim.Time, sizes []units.ByteSize, up, down units.BitRate,
	owd time.Duration, jitter *rand.Rand, maxJitter time.Duration) (departs, arrives []sim.Time) {
	bottleneck := min(up, down)
	cursor := start
	var prevArrive sim.Time
	for i, sz := range sizes {
		depart := cursor.Add(up.TransmitTime(sz))
		cursor = depart
		departs = append(departs, depart)
		delay := owd
		if jitter != nil && maxJitter > 0 {
			delay += time.Duration(jitter.Int63n(int64(maxJitter)))
		}
		arrive := depart.Add(delay + down.TransmitTime(sz))
		if i > 0 {
			if floor := prevArrive.Add(bottleneck.TransmitTime(sz)); arrive < floor {
				arrive = floor
			}
		}
		arrives = append(arrives, arrive)
		prevArrive = arrive
	}
	return departs, arrives
}

// TestTrainMatchesPerPacketReference compares TrainInto with the per-packet
// reference on trains of mixed sizes and rates — runs of equal sizes, sizes
// alternating every packet, a size recurring after a different one — and
// checks the jitter stream sits at the same position afterwards.
func TestTrainMatchesPerPacketReference(t *testing.T) {
	trains := [][]units.ByteSize{
		PacketizeInto(nil, 48*units.KB),
		PacketizeInto(nil, PacketPayload),
		{1250, 1250, 1250, 40, 40, 1250, 1250, 700},
		{40, 1250, 40, 1250, 40},
		{1, 1, 2, 1, 1},
	}
	rates := []units.BitRate{384 * units.Kbps, 512 * units.Kbps, 6 * units.Mbps, 100 * units.Mbps, units.Gbps}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		sizes := trains[rng.Intn(len(trains))]
		up, down := rates[rng.Intn(len(rates))], rates[rng.Intn(len(rates))]
		owd := time.Duration(rng.Intn(80)) * time.Millisecond
		maxJitter := time.Duration(rng.Intn(3)) * time.Millisecond // 0 draws nothing
		seed := rng.Int63()
		refRNG, gotRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

		wantDep, wantArr := trainReference(sim.Time(round), sizes, up, down, owd, refRNG, maxJitter)
		gotDep, gotArr := TrainInto(nil, nil, sim.Time(round), sizes, up, down, owd, gotRNG, maxJitter)
		for i := range sizes {
			if gotDep[i] != wantDep[i] || gotArr[i] != wantArr[i] {
				t.Fatalf("round %d (%v up %v down %v) packet %d: got (%v, %v), want (%v, %v)",
					round, sizes, up, down, i, gotDep[i], gotArr[i], wantDep[i], wantArr[i])
			}
		}
		if got, want := gotRNG.Int63(), refRNG.Int63(); got != want {
			t.Fatalf("round %d: jitter stream at a different position after the train", round)
		}
	}
}

// TestPacketizeIntoReusesScratch pins the same contract for PacketizeInto.
func TestPacketizeIntoReusesScratch(t *testing.T) {
	want := Packetize(48 * units.KB)
	scratch := make([]units.ByteSize, 64)
	base := &scratch[0]
	got := PacketizeInto(scratch, 48*units.KB)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != base {
		t.Error("PacketizeInto reallocated despite sufficient scratch capacity")
	}
}

// TestPortQueuedAcrossDrainBoundaries pins the explicit-drain fix: the
// internal queue counter used to reset only lazily inside the next Reserve,
// so any accessor-only sequence accumulated stale state. Now every entry
// point drains first and the counter is exact at all times.
func TestPortQueuedAcrossDrainBoundaries(t *testing.T) {
	p := NewPort(1 * units.Mbps)
	p.Reserve(0, 125*units.KB) // busy until 1s
	p.Reserve(0, 125*units.KB) // busy until 2s
	if got := p.Queued(sim.Time(1500 * time.Millisecond)); got != 2 {
		t.Errorf("mid-backlog queued = %d, want 2", got)
	}
	// Reading Queued past the drain boundary resets the counter...
	if got := p.Queued(sim.Time(3 * time.Second)); got != 0 {
		t.Errorf("post-drain queued = %d, want 0", got)
	}
	// ...and a reservation after the read counts from zero, not from the
	// stale pre-drain value.
	p.Reserve(sim.Time(3*time.Second), 125*units.KB)
	if got := p.Queued(sim.Time(3 * time.Second)); got != 1 {
		t.Errorf("post-drain reservation queued = %d, want 1", got)
	}
	if got := p.Backlog(sim.Time(3 * time.Second)); got != time.Second {
		t.Errorf("post-drain backlog = %v, want 1s", got)
	}
	// A reservation past the boundary with no read before it drains too.
	q := NewPort(1 * units.Mbps)
	q.Reserve(0, 125*units.KB)
	q.Reserve(sim.Time(3*time.Second), 125*units.KB)
	if got := q.Queued(sim.Time(3 * time.Second)); got != 1 {
		t.Errorf("unread post-drain reservation queued = %d, want 1", got)
	}
}

// TestPortSetRateMidBacklog pins the throttle contract while a backlog
// stands: booked transfers keep their completion times, later reservations
// serialize at the new rate behind them, and Queued/Backlog stay exact
// through the change.
func TestPortSetRateMidBacklog(t *testing.T) {
	p := NewPort(1 * units.Mbps)
	p.Reserve(0, 125*units.KB) // busy until 1s at the old rate
	p.SetRate(2 * units.Mbps)
	if got := p.Backlog(0); got != time.Second {
		t.Errorf("backlog after SetRate = %v, want 1s (booked transfer keeps its time)", got)
	}
	start, end := p.Reserve(0, 125*units.KB) // 0.5s at the new rate
	if start != sim.Time(time.Second) || end != sim.Time(1500*time.Millisecond) {
		t.Errorf("post-throttle reservation (%v,%v), want (1s,1.5s)", start, end)
	}
	if got := p.Queued(0); got != 2 {
		t.Errorf("queued mid-backlog = %d, want 2", got)
	}
	if got := p.Queued(sim.Time(2 * time.Second)); got != 0 {
		t.Errorf("queued after drain = %d, want 0", got)
	}
}

// TestPortTryReserveTailDrop exercises the bounded queue: at the limit a
// TryReserve is tail-dropped, the backlog is untouched, and the port accepts
// again once the queue drains.
func TestPortTryReserveTailDrop(t *testing.T) {
	p := NewPort(1 * units.Mbps)
	p.SetQueueLimit(1)
	if p.QueueLimit() != 1 {
		t.Fatalf("QueueLimit = %d, want 1", p.QueueLimit())
	}
	start, end, ok := p.TryReserve(0, 125*units.KB)
	if !ok || start != 0 || end != sim.Time(time.Second) {
		t.Fatalf("first TryReserve = (%v,%v,%v), want (0,1s,true)", start, end, ok)
	}
	if _, _, ok := p.TryReserve(0, 125*units.KB); ok {
		t.Fatal("TryReserve at the limit should tail-drop")
	}
	if got := p.Backlog(0); got != time.Second {
		t.Errorf("dropped transfer extended the backlog: %v, want 1s", got)
	}
	// After the queue drains, the port accepts again.
	if _, _, ok := p.TryReserve(sim.Time(2*time.Second), 125*units.KB); !ok {
		t.Error("post-drain TryReserve should accept")
	}
	// A limit of 0 restores the unbounded FIFO.
	p.SetQueueLimit(0)
	if _, _, ok := p.TryReserve(sim.Time(2*time.Second), 125*units.KB); !ok {
		t.Error("TryReserve with the limit lifted should accept")
	}
}

// TestPortTryReserveUnlimitedMatchesReserve pins the byte-identical-default
// contract: without a queue limit TryReserve books exactly what Reserve
// would, transfer for transfer.
func TestPortTryReserveUnlimitedMatchesReserve(t *testing.T) {
	a, b := NewPort(6*units.Mbps), NewPort(6*units.Mbps)
	times := []sim.Time{0, 0, sim.Time(time.Second), sim.Time(5 * time.Second)}
	for i, now := range times {
		ws, we := a.Reserve(now, 48*units.KB)
		gs, ge, ok := b.TryReserve(now, 48*units.KB)
		if !ok || gs != ws || ge != we {
			t.Fatalf("transfer %d: TryReserve = (%v,%v,%v), Reserve = (%v,%v)", i, gs, ge, ok, ws, we)
		}
	}
}

func TestSetQueueLimitNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetQueueLimit(-1) should panic")
		}
	}()
	NewPort(units.Mbps).SetQueueLimit(-1)
}

func TestCongestionModelValidate(t *testing.T) {
	cases := []struct {
		name    string
		m       CongestionModel
		ok      bool
		enabled bool
	}{
		{"zero", CongestionModel{}, true, false},
		{"bounded", CongestionModel{QueueDepth: 2}, true, true},
		{"negative depth", CongestionModel{QueueDepth: -1}, false, false},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && c.m.Enabled() != c.enabled {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, c.m.Enabled(), c.enabled)
		}
	}
}

// BenchmarkReserve is a served 48 KB chunk's claim on a port: Reserve on an
// idle 100 Mb/s port, and TryReserve refused by a full queue.
func BenchmarkReserve(b *testing.B) {
	const chunk = 48 * units.KB
	b.Run("reserve", func(b *testing.B) {
		port := NewPort(100 * units.Mbps)
		var now sim.Time
		for b.Loop() {
			_, now = port.Reserve(now, chunk)
		}
	})
	b.Run("tryreserve-full", func(b *testing.B) {
		full := NewPort(512 * units.Kbps)
		full.SetQueueLimit(2)
		full.TryReserve(0, chunk)
		full.TryReserve(0, chunk)
		for b.Loop() {
			full.TryReserve(0, chunk)
		}
	})
}
