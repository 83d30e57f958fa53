// Package sim implements the deterministic discrete-event engine underneath
// every emulated swarm.
//
// Each Engine is single-goroutine by design: determinism is a hard
// requirement (the same seed must regenerate the same paper table
// byte-for-byte), so an engine never runs events concurrently. Events
// scheduled for the same instant fire in scheduling order, which makes the
// tie-break rule explicit instead of accidental.
//
// An event is either a Record — a small pointer-free value the engine hands
// to the one dispatch function its owner installed (SetDispatch), the form a
// model uses for the handful of event kinds that make up nearly all of its
// traffic — or a closure (Schedule, At, After, Every), the form for
// everything rare. Both share one queue and one (at, seq) order.
//
// Parallelism lives at two levels above the single engine: across
// independent experiments (see internal/study), and — since the sharded
// engine (sharded.go) — across shards inside one experiment, where N
// engines run in conservative lockstep windows and exchange work through
// deterministically ordered mailboxes.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual instant, measured as an offset from the start of the
// experiment. It is a distinct type so that wall-clock time.Time values
// cannot leak into the simulation by accident.
type Time time.Duration

// String renders the instant in ordinary duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports the instant in seconds, the unit used for rate
// computations in the analysis layer.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add offsets the instant by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed between u and t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Kind says what a posted Record means to the engine's dispatch function.
// Kinds are the owner's to define, from 1 up; 0 is the engine's own closure
// kind and cannot be posted.
type Kind uint8

// kindFunc marks a queued closure: the event's Node indexes the engine's
// closure table.
const kindFunc Kind = 0

// Record is an event's payload in pointer-free form. The engine stores and
// returns the fields untouched; only the dispatch function reads them.
type Record struct {
	Kind       Kind
	Node, Peer int32
	A, B       int64
}

// event is the queued form of everything, closures included: stored by value
// in the wheel's slabs and the current-tick heap, 40 bytes, and free of
// pointers, so the queue is memory the garbage collector never scans
// however many events are pending. order is seq<<kindBits | kind: sequence
// numbers are unique, so the kind bits never decide an order. The rest is
// the Record's. A closure's func value lives in Engine.closures instead,
// found through node.
type event struct {
	at         Time
	order      uint64
	node, peer int32
	a, b       int64
}

const kindBits = 8

func (ev *event) kind() Kind { return Kind(ev.order) }

// closure is one entry of the closure table: what a kindFunc event runs. A
// free entry holds none and links to the next free one.
type closure struct {
	fn       func()
	nextFree int32
}

// Engine is a discrete-event scheduler with a virtual clock and its own
// seeded random source. The zero value is not usable; construct with New.
//
// The queue is a hierarchical timing wheel (see wheel.go): O(1) amortized
// schedule and fire regardless of how many events are pending, in exact
// (at, seq) firing order, and without allocating once the queue has reached
// its peak depth.
type Engine struct {
	now Time
	seq uint64
	rng *rand.Rand

	// dispatch receives every fired Record (SetDispatch).
	dispatch func(Record)

	// Timing-wheel queue state (wheel.go). cur is the small (at, seq)
	// min-heap of the tick being drained; slots/occ are the wheel levels
	// (each slot the head of a chain of slabs) and their occupancy bitmaps;
	// free chains the slabs no slot is using; curTick is the wheel cursor.
	cur        []event
	curTick    int64
	slots      [numLevels][levelSlots]*slab
	occ        [numLevels]uint64
	free       *slab
	wheelCount int // events stored in wheel slots

	// closures is the table kindFunc events index; freeClosure heads the
	// list of its unused entries (-1 when there is none). An entry is taken
	// at schedule time and returned when its event fires.
	closures    []closure
	freeClosure int32

	stopped bool
	// processed counts executed events; exposed for tests and for the
	// benchmark harness to report event throughput.
	processed uint64
}

// New returns an engine whose random source is seeded with seed. Two engines
// built with the same seed and fed the same schedule behave identically.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), freeClosure: -1}
}

// SetDispatch installs the function that executes posted Records. An engine
// has one; the model that owns the engine installs it before posting.
func (e *Engine) SetDispatch(fn func(Record)) { e.dispatch = fn }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
//
// Ordering contract: the source is shared by every caller on this engine,
// so the draw sequence is defined by event execution order — (at, seq)
// order during a run, plus setup-code draws in program order before Run.
// Any randomness consumed outside that order (from another goroutine, or
// interleaved with a different engine's events) breaks reproducibility.
// Under the sharded engine each shard owns its own Engine and therefore its
// own stream; model code must draw from the engine of the shard whose event
// is executing, never from a neighbour shard's source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.cur) + e.wheelCount }

// NextAt reports the instant of the earliest pending event, or false when
// the queue holds none. The sharded coordinator uses this peek to clip
// lockstep windows at the next global event and to jump over idle gaps.
func (e *Engine) NextAt() (Time, bool) {
	if !e.fillHead() {
		return 0, false
	}
	return e.cur[0].at, true
}

// Schedule runs fn after delay of virtual time. A negative delay is a
// programming error and panics: allowing it would silently reorder the past.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now.Add(delay), fn)
}

// At runs fn at the absolute virtual instant t, which must not precede the
// current clock.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	e.enqueue(t, Record{Node: e.holdClosure(fn)})
}

// Post queues r for the dispatch function after delay of virtual time: the
// closure-free form of Schedule, ordered with every other event by
// (instant, scheduling order).
func (e *Engine) Post(delay time.Duration, r Record) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.PostAt(e.now.Add(delay), r)
}

// PostAt queues r for the dispatch function at the absolute virtual instant
// t, which must not precede the current clock.
func (e *Engine) PostAt(t Time, r Record) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	if r.Kind == kindFunc || e.dispatch == nil {
		panic(fmt.Sprintf("sim: record of kind %d posted to an engine that cannot dispatch it", r.Kind))
	}
	e.enqueue(t, r)
}

// holdClosure files fn in the closure table and returns the entry's index.
func (e *Engine) holdClosure(fn func()) int32 {
	i := e.freeClosure
	if i < 0 {
		e.closures = append(e.closures, closure{})
		i = int32(len(e.closures) - 1)
	} else {
		e.freeClosure = e.closures[i].nextFree
	}
	e.closures[i] = closure{fn: fn}
	return i
}

// dropClosure empties entry i, so the table does not pin the func, and
// returns it to the free list.
func (e *Engine) dropClosure(i int32) {
	e.closures[i] = closure{nextFree: e.freeClosure}
	e.freeClosure = i
}

// Timer is a cancellable scheduled callback.
type Timer struct{ cancelled bool }

// Cancel keeps the timer's callback from running. Cancelling a fired, a
// cancelled or a nil timer is a no-op, so callers need no bookkeeping.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
	}
}

// After schedules fn like Schedule and returns a Timer that can keep it from
// running. A cancelled timer's event stays queued and fires as a no-op, so
// Pending, NextAt and Processed count it like any other.
func (e *Engine) After(delay time.Duration, fn func()) *Timer {
	t := new(Timer)
	e.Schedule(delay, func() {
		if !t.cancelled {
			fn()
		}
	})
	return t
}

// Every schedules fn to run now+first, then repeatedly every interval for
// the rest of the run.
func (e *Engine) Every(first, interval time.Duration, fn func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	var tick func()
	tick = func() {
		fn()
		e.Schedule(interval, tick)
	}
	e.Schedule(first, tick)
}

// Step executes the single earliest pending event and reports whether one
// existed. The clock jumps to the event's instant.
func (e *Engine) Step() bool {
	if !e.fillHead() {
		return false
	}
	ev := e.heapPop()
	e.now = ev.at
	e.processed++
	if ev.kind() != kindFunc {
		e.dispatch(Record{Kind: ev.kind(), Node: ev.node, Peer: ev.peer, A: ev.a, B: ev.b})
		return true
	}
	fn := e.closures[ev.node].fn
	e.dropClosure(ev.node) // before the call, so what fn schedules can reuse the entry
	fn()
	return true
}

// Run executes events until the clock would pass horizon or the queue
// drains or Stop is called. On return the clock rests at min(horizon, last
// event time); events scheduled beyond the horizon stay queued. A run that
// drains the queue completely also releases the queue's internal capacity
// (slabs, free list, current-tick heap, closure table), so a workload spike
// (a flash crowd's arrival burst) does not pin its peak event memory for
// the rest of a long study.
func (e *Engine) Run(horizon time.Duration) {
	e.stopped = false
	end := Time(horizon)
	for !e.stopped {
		if !e.fillHead() || e.cur[0].at > end {
			break
		}
		e.Step()
	}
	if e.now < end && !e.stopped {
		e.now = end
	}
	e.releaseIfDrained()
}

// RunUntilIdle executes every queued event regardless of time. Useful in
// tests; real experiments use Run with a horizon.
func (e *Engine) RunUntilIdle() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.releaseIfDrained()
}

// Stop makes the current Run/RunUntilIdle return after the executing event
// completes. The queue is preserved, so a run can be resumed.
func (e *Engine) Stop() { e.stopped = true }
