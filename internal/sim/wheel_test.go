package sim

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// refEngine reimplements the engine's previous queue — a single binary
// min-heap over (at, seq) with lazy head discard of cancelled timers — as a
// reference model. The differential tests below drive it and the timing
// wheel with identical randomized workloads and demand identical behaviour.
type refEngine struct {
	now       Time
	seq       uint64
	events    []refEvent
	ghost     int
	processed uint64
	dispatch  func(id int) // what a posted id runs (sched.onRecord)
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	timer *refTimer
}

type refTimer struct {
	eng       *refEngine
	cancelled bool
	fired     bool
}

func (t *refTimer) cancel() {
	if t.cancelled || t.fired {
		return
	}
	t.cancelled = true
	t.eng.ghost++
}

func (e *refEngine) less(i, j int) bool {
	a, b := &e.events[i], &e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) push(ev refEvent) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

func (e *refEngine) pop() refEvent {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = refEvent{}
	e.events = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.less(r, l) {
			m = r
		}
		if !e.less(m, i) {
			break
		}
		e.events[i], e.events[m] = e.events[m], e.events[i]
		i = m
	}
	return top
}

func (e *refEngine) dropCancelled() {
	for len(e.events) > 0 {
		t := e.events[0].timer
		if t == nil || !t.cancelled {
			return
		}
		e.pop()
		e.ghost--
	}
}

func (e *refEngine) step() bool {
	e.dropCancelled()
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	if ev.timer != nil {
		ev.timer.fired = true
	}
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

func (e *refEngine) run(horizon time.Duration) {
	end := Time(horizon)
	for {
		e.dropCancelled()
		if len(e.events) == 0 || e.events[0].at > end {
			break
		}
		e.step()
	}
	if e.now < end {
		e.now = end
	}
}

// sched abstracts the two engines so one workload driver exercises both.
// post queues a record-style event: the engine hands id back to the function
// given to onRecord. The reference heap has no records; it wraps the same
// call in a closure, which must be indistinguishable.
type sched interface {
	now() Time
	pending() int
	processedCount() uint64
	schedule(d time.Duration, fn func())
	after(d time.Duration, fn func()) (cancel func())
	onRecord(fn func(id int))
	post(d time.Duration, id int)
	run(horizon time.Duration)
	stepToIdle()
}

type wheelSched struct{ e *Engine }

func (s wheelSched) onRecord(fn func(id int)) {
	s.e.SetDispatch(func(r Record) { fn(int(r.Node)) })
}
func (s wheelSched) post(d time.Duration, id int) {
	s.e.Post(d, Record{Kind: 1, Node: int32(id)})
}

func (s wheelSched) now() Time                           { return s.e.Now() }
func (s wheelSched) pending() int                        { return s.e.Pending() }
func (s wheelSched) processedCount() uint64              { return s.e.Processed() }
func (s wheelSched) schedule(d time.Duration, fn func()) { s.e.Schedule(d, fn) }
func (s wheelSched) run(horizon time.Duration)           { s.e.Run(horizon) }
func (s wheelSched) stepToIdle()                         { s.e.RunUntilIdle() }
func (s wheelSched) after(d time.Duration, fn func()) func() {
	t := s.e.After(d, fn)
	return t.Cancel
}

type refSched struct{ e *refEngine }

func (s refSched) onRecord(fn func(id int)) { s.e.dispatch = fn }
func (s refSched) post(d time.Duration, id int) {
	s.schedule(d, func() { s.e.dispatch(id) })
}
func (s refSched) now() Time              { return s.e.now }
func (s refSched) pending() int           { return len(s.e.events) - s.e.ghost }
func (s refSched) processedCount() uint64 { return s.e.processed }
func (s refSched) schedule(d time.Duration, fn func()) {
	s.e.seq++
	s.e.push(refEvent{at: s.e.now.Add(d), seq: s.e.seq, fn: fn})
}
func (s refSched) after(d time.Duration, fn func()) func() {
	t := &refTimer{eng: s.e}
	s.e.seq++
	s.e.push(refEvent{at: s.e.now.Add(d), seq: s.e.seq, fn: fn, timer: t})
	return t.cancel
}
func (s refSched) run(horizon time.Duration) { s.e.run(horizon) }
func (s refSched) stepToIdle() {
	for s.e.step() {
	}
}

type fireRec struct {
	id int
	at Time
}

// segMark is the queue's observable state at the end of one run segment.
type segMark struct {
	now       Time
	pending   int
	processed uint64
}

// workloadTrace is everything driveWorkload observed: every firing in order,
// and the state after each segment and after the final drain.
type workloadTrace struct {
	fired []fireRec
	marks []segMark
}

// driveWorkload runs a randomized schedule against s: mixed delay
// magnitudes (zero, sub-tick, multi-tick, exact tick and level-boundary
// multiples), same-instant ties, nested scheduling from callbacks,
// cancellations both immediate and issued later from unrelated events, and
// posted records interleaved with the closures. The rng is re-seeded per
// engine, so two engines that fire events in the same order draw identical
// decisions and produce comparable traces.
func driveWorkload(s sched, seed int64, segments []time.Duration) workloadTrace {
	rng := rand.New(rand.NewSource(seed))
	var tr workloadTrace
	var cancels []func()
	var bodies []func() // by event id: what a posted record runs
	s.onRecord(func(id int) { bodies[id]() })
	budget := 3000
	prev := time.Duration(0)

	randDelay := func() time.Duration {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return prev // deliberate same-instant tie with a sibling
		case 2:
			return time.Duration(rng.Int63n(1000)) // sub-µs, far below one tick
		case 3:
			return time.Duration(rng.Int63n(int64(time.Millisecond)))
		case 4:
			return time.Duration(rng.Int63n(int64(time.Second)))
		case 5:
			return time.Duration(rng.Int63n(int64(time.Minute)))
		case 6:
			return time.Duration(1+rng.Int63n(levelSlots)) << tickShift // exact tick multiples
		case 7:
			return time.Duration(1+rng.Int63n(8)) << (tickShift + levelBits) // level-1 slot boundaries
		default:
			return time.Duration(1+rng.Int63n(4)) << (tickShift + 2*levelBits) // level-2 slot boundaries
		}
	}

	var spawn func()
	spawn = func() {
		if budget <= 0 {
			return
		}
		budget--
		id := len(bodies)
		d := randDelay()
		prev = d
		fn := func() {
			tr.fired = append(tr.fired, fireRec{id, s.now()})
			for k := rng.Intn(3); k > 0; k-- { // nested scheduling from the callback
				spawn()
			}
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				// Cancel a timer queued by an earlier, unrelated event —
				// it may sit in any wheel level or in the current tick.
				i := rng.Intn(len(cancels))
				cancels[i]()
				cancels[i] = cancels[len(cancels)-1]
				cancels = cancels[:len(cancels)-1]
			}
		}
		bodies = append(bodies, fn)
		switch rng.Intn(8) {
		case 0, 1:
			cancel := s.after(d, fn)
			if rng.Intn(3) == 0 {
				cancel() // immediate cancellation
			} else {
				cancels = append(cancels, cancel)
			}
		case 2, 3, 4:
			s.post(d, id)
		default:
			s.schedule(d, fn)
		}
	}

	mark := func() {
		tr.marks = append(tr.marks, segMark{s.now(), s.pending(), s.processedCount()})
	}
	for i := 0; i < 400; i++ {
		spawn()
	}
	for _, h := range segments {
		s.run(h)
		mark()
	}
	s.stepToIdle()
	mark()
	return tr
}

// checkWheelMatchesHeap is the core equivalence check: the same randomized
// workload through the reference heap and the wheel must fire the same
// events in the same order at the same instants, with matching clocks,
// pending counts and processed counts after every segment.
func checkWheelMatchesHeap(t *testing.T, seed int64, segments []time.Duration) {
	t.Helper()
	got := driveWorkload(wheelSched{New(0)}, seed, segments)
	want := driveWorkload(refSched{&refEngine{}}, seed, segments)
	if len(got.fired) != len(want.fired) {
		t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got.fired), len(want.fired))
	}
	for i := range want.fired {
		if got.fired[i] != want.fired[i] {
			t.Fatalf("seed %d: divergence at firing %d: wheel %+v, heap %+v",
				seed, i, got.fired[i], want.fired[i])
		}
	}
	for i := range want.marks {
		if got.marks[i] != want.marks[i] {
			t.Errorf("seed %d: after segment %d: wheel %+v, heap %+v", seed, i, got.marks[i], want.marks[i])
		}
	}
}

// differentialSegments has a horizon mid-workload, which takes the cursor
// overshoot path.
var differentialSegments = []time.Duration{500 * time.Millisecond, 2 * time.Second, time.Minute}

func TestWheelMatchesHeapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		checkWheelMatchesHeap(t, seed, differentialSegments)
	}
}

// FuzzWheelMatchesHeap lets the fuzzer choose the workload seed and the run
// horizons (milliseconds; any order — a horizon behind the clock is a no-op
// on both engines).
func FuzzWheelMatchesHeap(f *testing.F) {
	ms := func(d time.Duration) uint32 { return uint32(d / time.Millisecond) }
	for seed := int64(1); seed <= 8; seed++ {
		s := differentialSegments
		f.Add(seed, ms(s[0]), ms(s[1]), ms(s[2]))
	}
	f.Fuzz(func(t *testing.T, seed int64, h1, h2, h3 uint32) {
		checkWheelMatchesHeap(t, seed, []time.Duration{
			time.Duration(h1) * time.Millisecond,
			time.Duration(h2) * time.Millisecond,
			time.Duration(h3) * time.Millisecond,
		})
	})
}

// TestCancelInHigherWheelLevel cancels timers that sit in level ≥ 1 slots
// before any cascade has touched them; they must neither fire nor linger in
// Pending, and the queue must drain cleanly around them.
func TestCancelInHigherWheelLevel(t *testing.T) {
	e := New(1)
	oneTick := time.Duration(1) << tickShift
	level1 := oneTick * levelSlots // lands in level 1
	level2 := level1 * levelSlots  // lands in level 2

	tm1 := e.After(level1+oneTick, func() { t.Error("cancelled level-1 timer fired") })
	tm2 := e.After(level2+oneTick, func() { t.Error("cancelled level-2 timer fired") })
	fired := 0
	e.Schedule(level2+2*oneTick, func() { fired++ })
	tm1.Cancel()
	tm2.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestCancelAfterCascadeIntoCurrentTick cancels a timer after its slot has
// spilled into the current-tick heap (its sibling at the same tick already
// fired), exercising the heap-head discard path.
func TestCancelAfterCascadeIntoCurrentTick(t *testing.T) {
	e := New(1)
	oneTick := time.Duration(1) << tickShift
	at := 5 * oneTick
	var tm *Timer
	// First event of the tick cancels the second while both are in cur.
	e.Schedule(at, func() { tm.Cancel() })
	tm = e.After(at+oneTick/2, func() { t.Error("timer cancelled in current tick fired") })
	e.Schedule(at+oneTick-1, func() {}) // same tick, after the cancelled timer
	e.RunUntilIdle()
	if e.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", e.Processed())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

// TestRunHorizonCursorOvershoot pins the subtle interaction between Run
// horizons and the wheel cursor: peeking at a far-future event advances the
// cursor past the horizon, and events scheduled afterwards at nearer
// instants land behind the cursor — they must still fire first, in order.
func TestRunHorizonCursorOvershoot(t *testing.T) {
	e := New(1)
	var trace []string
	e.Schedule(10*time.Minute, func() { trace = append(trace, "far") })
	e.Run(time.Second) // peeks at the 10-minute event, overshooting the cursor
	if e.Now() != Time(time.Second) {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
	e.Schedule(time.Second, func() { trace = append(trace, "near") })
	e.Schedule(2*time.Second, func() { trace = append(trace, "mid") })
	e.RunUntilIdle()
	want := []string{"near", "mid", "far"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// countSlabs reports how many slabs the engine holds, in slot chains and on
// the free list. Slabs only ever move between the two until a full drain
// drops them all, so between drains this is the number ever allocated.
func countSlabs(e *Engine) int {
	n := 0
	for s := e.free; s != nil; s = s.next {
		n++
	}
	for lvl := range e.slots {
		for i := range e.slots[lvl] {
			for s := e.slots[lvl][i]; s != nil; s = s.next {
				n++
			}
		}
	}
	return n
}

// TestRunReleasesQueueCapacity checks the drain-release contract: once a Run
// empties the queue, the engine lets go of everything a workload spike grew —
// slot chains, free slabs, the current-tick heap, the closure table — instead
// of pinning peak capacity for the rest of a long study.
func TestRunReleasesQueueCapacity(t *testing.T) {
	e := New(1)
	e.SetDispatch(func(Record) {})
	for i := 0; i < 10000; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
		e.Post(time.Duration(i)*time.Millisecond, Record{Kind: 1})
	}
	tm := e.After(5*time.Second, func() {}) // a ghost must not block the release
	tm.Cancel()
	if countSlabs(e) < 20000/slabEvents {
		t.Fatalf("20000 queued events sit in %d slabs", countSlabs(e))
	}
	e.Run(time.Minute)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if e.cur != nil {
		t.Errorf("cur heap capacity not released after drain")
	}
	if n := countSlabs(e); n != 0 {
		t.Errorf("%d slabs (chained or free) survive the drain", n)
	}
	if e.closures != nil || e.freeClosure != -1 {
		t.Errorf("closure table survives the drain: %d entries, free head %d", len(e.closures), e.freeClosure)
	}
	// The engine must stay fully usable after a release.
	fired := false
	e.Schedule(time.Second, func() { fired = true })
	e.RunUntilIdle()
	if !fired {
		t.Error("engine unusable after capacity release")
	}
}

// TestSlabsTrackPeakPending is the bound that slab chains exist for: events
// filed into one set of level-2 slots, drained to a small remainder, then as
// many again filed into a different set of level-2 slots must fit in the
// slabs the first wave left on the free list. Slabs ever allocated stay
// within ceil(peak pending / slabEvents), plus one partly filled head per
// occupied slot, plus the slots a cascade is in the middle of spilling. A
// queue whose slots each keep their own high-water capacity needs about
// twice that.
func TestSlabsTrackPeakPending(t *testing.T) {
	const n = 60000
	slot2 := time.Duration(1) << (tickShift + 2*levelBits) // span of one level-2 slot, ≈ 0.54 s
	e := New(1)
	e.SetDispatch(func(Record) {})
	peak, occupied := 0, 0
	sample := func() {
		if p := e.Pending(); p > peak {
			peak = p
		}
		o := 0
		for _, w := range e.occ {
			o += bits.OnesCount64(w)
		}
		if o > occupied {
			occupied = o
		}
	}
	fill := func(from, to time.Duration) {
		for i := 0; i < n; i++ {
			at := Time(from + (to-from)*time.Duration(i)/n)
			e.PostAt(at, Record{Kind: 1})
		}
		sample()
	}
	runTo := func(h time.Duration) {
		for {
			at, ok := e.NextAt()
			if !ok || at > Time(h) {
				return
			}
			e.Step()
			sample()
		}
	}
	fill(2*slot2, 30*slot2)
	runTo(30*slot2 - 10*time.Millisecond)
	if p := e.Pending(); p == 0 || p > n/100 {
		t.Fatalf("remainder %d, want a small non-empty one", p)
	}
	fill(32*slot2, 60*slot2)
	runTo(40 * slot2)
	bound := (peak+slabEvents-1)/slabEvents + occupied + numLevels
	if got := countSlabs(e); got > bound {
		t.Errorf("%d slabs allocated, bound %d (peak pending %d, at most %d slots occupied)", got, bound, peak, occupied)
	}
}

// TestRecordsAndClosuresShareOneOrder: records and closures scheduled for
// one instant fire in scheduling order, a cancelled timer between them is
// neither run nor counted, cancelling after the fire stays a no-op, and the
// closure-table entries are reused rather than grown.
func TestRecordsAndClosuresShareOneOrder(t *testing.T) {
	e := New(1)
	var trace []int
	e.SetDispatch(func(r Record) {
		if r.Peer != 7 || r.A != -3 || r.B != 1<<40 {
			t.Errorf("record payload came back as %+v", r)
		}
		trace = append(trace, int(r.Node))
	})
	rec := func(id int32) Record { return Record{Kind: 2, Node: id, Peer: 7, A: -3, B: 1 << 40} }
	at := 3 * time.Second
	e.Post(at, rec(0))
	e.Schedule(at, func() { trace = append(trace, 1) })
	dead := e.After(at, func() { t.Error("cancelled timer fired") })
	e.PostAt(Time(at), rec(2))
	live := e.After(at, func() { trace = append(trace, 3) })
	e.Post(at, rec(4))
	dead.Cancel()
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.RunUntilIdle()
	for i, id := range trace {
		if id != i {
			t.Fatalf("firing order %v, want 0 1 2 3 4", trace)
		}
	}
	if len(trace) != 5 || e.Processed() != 5 {
		t.Errorf("fired %d, Processed = %d, want 5 and 5", len(trace), e.Processed())
	}

	// The drain released the table; fill it again, fire, and cancel late.
	tm := e.After(time.Second, func() {})
	e.Step()
	tm.Cancel()
	live.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancel-after-fire, want 0", e.Pending())
	}
	for i := 0; i < 10; i++ { // never more than one pending at a time
		e.Schedule(time.Second, func() {})
		e.Step()
	}
	if len(e.closures) != 1 {
		t.Errorf("closure table grew to %d entries for one pending closure at a time", len(e.closures))
	}
}

// TestPostNeedsDispatch: posting kind 0, or to an engine nobody gave a
// dispatch function, is a programming error.
func TestPostNeedsDispatch(t *testing.T) {
	assertPanics(t, func() { New(1).Post(0, Record{Kind: 1}) })
	e := New(1)
	e.SetDispatch(func(Record) {})
	assertPanics(t, func() { e.Post(0, Record{}) })
	assertPanics(t, func() { e.Post(-1, Record{Kind: 1}) })
	assertPanics(t, func() { e.Run(time.Second); e.PostAt(0, Record{Kind: 1}) })
}

// TestSequenceLimitPanics: the sequence number shares event.order with the
// kind, so the event that would take number 2⁵⁶ is refused with a message
// naming the limit, never wrapped into an earlier firing order.
func TestSequenceLimitPanics(t *testing.T) {
	e := New(1)
	e.SetDispatch(func(Record) {})
	e.seq = 1<<56 - 2
	e.Post(0, Record{Kind: 1}) // takes 2⁵⁶ − 1, the last number there is
	for _, schedule := range []func(){
		func() { e.Post(0, Record{Kind: 1}) },
		func() { e.Schedule(0, func() {}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "2^56") {
					t.Errorf("scheduling past the limit panicked with %q, want a message naming 2^56", msg)
				}
			}()
			e.seq = 1<<56 - 1
			schedule()
		}()
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want the one event scheduled under the limit", e.Pending())
	}
}

// TestEventIsSmallAndPointerFree holds the two properties the queue's memory
// behaviour rests on: 40 bytes, 25 of which and a 16-byte header fill a slab
// to 1,016 bytes, in the 1,024-byte size class with no room for a 26th, and
// nothing in it for the collector to follow — a later field must not quietly
// make every slab scannable.
func TestEventIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 40 {
		t.Errorf("event is %d bytes, want 40", size)
	}
	if size, ev := unsafe.Sizeof(slab{}), unsafe.Sizeof(event{}); size > 1024 || size+ev <= 1024 {
		t.Errorf("slab is %d bytes, want as many %d-byte events as the 1,024-byte size class holds", size, ev)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: the collector would scan every queued event", path, ty.Kind())
		}
	}
	walk("event", reflect.TypeOf(event{}))
}

// BenchmarkEngineDeepQueue measures schedule+fire cost with many events
// pending at once — the regime where the old heap paid its log factor.
func BenchmarkEngineDeepQueue(b *testing.B) {
	e := New(1)
	rng := rand.New(rand.NewSource(2))
	var churn func()
	churn = func() {
		e.Schedule(time.Duration(rng.Int63n(int64(time.Minute))), churn)
	}
	for i := 0; i < 1<<16; i++ {
		churn()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCancel is After+Cancel, the call bench's sim.cancel_ns times. A
// cancelled event stays queued until its slot spills, so a 1 ms heartbeat
// stepped every 256 cancels keeps the wheel turning and discards them.
func BenchmarkCancel(b *testing.B) {
	e := New(1)
	var beat func()
	beat = func() { e.Schedule(time.Millisecond, beat) }
	beat()
	rng := rand.New(rand.NewSource(3))
	nop := func() {}
	for i := 0; b.Loop(); i++ {
		e.After(time.Duration(rng.Int63n(int64(100*time.Millisecond))), nop).Cancel()
		if i&255 == 255 {
			e.Step()
		}
	}
}
