package sim

import (
	"fmt"
	"sync"
	"time"
)

// Sharded coordinates N shard engines plus one global engine in
// conservative lockstep windows, so a single simulation can drain events on
// several cores without giving up determinism.
//
// Model. Every simulated entity is owned by exactly one shard; its events
// run on that shard's Engine, on that shard's goroutine, against that
// shard's RNG stream. Anything that must observe or mutate state across
// shards — scenario timeline events, the metrics sampler, tracker snapshot
// refreshes — runs on the global engine, which only executes at window
// barriers while every shard goroutine is parked, and may therefore touch
// anything.
//
// Windows. The coordinator repeatedly picks a window end
//
//	next = min(m + lookahead, nextGlobalEvent, horizon)
//
// where m is the earliest pending instant across all engines and lookahead
// is a lower bound on the latency of any cross-shard interaction (for the
// overlay: the minimum inter-shard topology.OneWayDelay). Shards then run
// concurrently to next. The bound makes this safe: an event executing at
// t ≤ next can only affect another shard at t+lookahead ≥ next, i.e. never
// inside the current window, so no shard can run ahead of a message it
// should have received. Clipping at the next global event only shortens
// windows and preserves the bound.
//
// Cross-shard sends. During the concurrent phase a shard must not call
// into another shard's Engine; it appends the send to its own per-
// destination mailbox via Send. At the barrier the coordinator flushes all
// mailboxes, per destination, sources in index order and each mailbox in
// send order. The destination's (at, seq) queue then fires them by instant,
// ties in (src shard, send order) — a total order independent of goroutine
// scheduling — which makes shards=N runs byte-identical for a fixed N. A
// send that lands exactly on the window boundary is enqueued behind the
// barrier and executes first thing in the next window.
//
// shards=1 collapses the machinery entirely: the global engine is the one
// shard, Run delegates to Engine.Run, and behavior is byte-identical to
// the serial engine.
type Sharded struct {
	shards    []*Engine
	global    *Engine
	lookahead Time
	stopped   bool

	// mail[src][dst] buffers cross-shard sends made during the concurrent
	// phase, in send order; each inner slice is appended to only by shard
	// src's goroutine, so no locking is needed.
	mail [][][]crossEvent
	// parallel is true exactly while shard goroutines are running. It is
	// written only by the coordinator while workers are parked, so workers
	// observe a stable value.
	parallel bool
}

// crossEvent is one cross-shard send awaiting the barrier flush.
type crossEvent struct {
	at Time
	fn func()
}

// NewSharded builds a coordinator over n shard engines. lookahead must be a
// positive lower bound on the virtual latency of every cross-shard
// interaction; the caller (the experiment layer) derives it from the
// topology and its shard partition. Shard i draws from an RNG stream
// seeded by mixing (seed, i), so streams are decorrelated and each is a
// pure function of the pair (seed, shards).
func NewSharded(seed int64, n int, lookahead time.Duration) *Sharded {
	if n < 1 {
		panic(fmt.Sprintf("sim: shards must be >= 1, got %d", n))
	}
	if n > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	s := &Sharded{global: New(seed), lookahead: Time(lookahead)}
	if n == 1 {
		s.shards = []*Engine{s.global}
		return s
	}
	s.shards = make([]*Engine, n)
	for i := range s.shards {
		s.shards[i] = New(mixSeed(seed, int64(i)))
	}
	s.mail = make([][][]crossEvent, n)
	for i := range s.mail {
		s.mail[i] = make([][]crossEvent, n)
	}
	return s
}

// mixSeed derives shard i's RNG seed from the run seed with a splitmix64
// finalizer, so neighbouring shard indexes yield decorrelated streams.
func mixSeed(seed, i int64) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// N reports the shard count.
func (s *Sharded) N() int { return len(s.shards) }

// Shard returns shard i's engine. Model code owned by shard i must schedule
// and draw randomness exclusively through this engine.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Global returns the barrier-phase engine. Events scheduled here may read
// and mutate state on any shard, because they only execute while every
// shard goroutine is parked. With one shard it is the shard engine itself.
func (s *Sharded) Global() *Engine { return s.global }

// Now reports the coordinated virtual clock. All engines agree on it at
// every barrier; during the concurrent phase shard clocks may individually
// be anywhere inside the current window.
func (s *Sharded) Now() Time { return s.global.now }

// Processed totals executed events across the shards and the global engine.
func (s *Sharded) Processed() uint64 {
	if len(s.shards) == 1 {
		return s.global.processed
	}
	total := s.global.processed
	for _, sh := range s.shards {
		total += sh.processed
	}
	return total
}

// Stop makes the current Run return at the next barrier. It must be called
// from a global event (or between runs); shard events cannot stop the
// coordinator because they have no safe way to reach it mid-window.
func (s *Sharded) Stop() {
	s.stopped = true
	s.global.Stop()
}

// Send schedules fn at absolute instant at on shard dst's engine, on behalf
// of shard src. During the concurrent phase the send is buffered in the
// (src, dst) mailbox and delivered at the barrier; during the barrier phase
// (global events, setup code) it goes straight into dst's queue. Same-shard
// sends always go straight in: they are ordinary intra-engine scheduling.
func (s *Sharded) Send(src, dst int, at Time, fn func()) {
	if dst == src || !s.parallel {
		s.shards[dst].At(at, fn)
		return
	}
	s.mail[src][dst] = append(s.mail[src][dst], crossEvent{at: at, fn: fn})
}

// Run executes events until the coordinated clock would pass horizon, the
// queues drain, or Stop is called. Semantics match Engine.Run: events with
// at ≤ horizon execute, the clock rests at horizon (or where Stop left it),
// later events stay queued.
func (s *Sharded) Run(horizon time.Duration) {
	if len(s.shards) == 1 {
		s.global.Run(horizon)
		return
	}
	s.stopped = false
	end := Time(horizon)

	// Persistent workers for this Run: each waits for a window end, runs
	// its shard to it, and signals the barrier. They exit when their
	// channel closes, so a Run never leaks goroutines.
	starts := make([]chan Time, len(s.shards))
	var wg sync.WaitGroup
	for i := range starts {
		starts[i] = make(chan Time, 1)
		go func(i int, ch <-chan Time) {
			for next := range ch {
				s.shards[i].Run(time.Duration(next))
				wg.Done()
			}
		}(i, starts[i])
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	for !s.stopped {
		m, ok := s.minNext()
		if !ok || m > end {
			// Nothing left at or before the horizon: rest every clock at
			// the horizon, like Engine.Run, and return.
			for _, sh := range s.shards {
				if sh.now < end {
					sh.now = end
				}
				sh.releaseIfDrained()
			}
			if s.global.now < end {
				s.global.now = end
			}
			s.global.releaseIfDrained()
			return
		}
		// Jump the window base over any idle gap, then extend by the
		// lookahead bound and clip at the horizon and the next global
		// event. m ≥ now always: no engine can hold an event in the past.
		next := min(m.Add(time.Duration(s.lookahead)), end)
		if g, ok := s.global.NextAt(); ok && g < next {
			next = g
		}

		// Concurrent phase.
		s.parallel = true
		wg.Add(len(s.shards))
		for _, ch := range starts {
			ch <- next
		}
		wg.Wait()
		s.parallel = false

		// Barrier: deliver cross-shard sends, then run global events due in
		// the closed window. The order matters: flushed sends take engine
		// seqs before anything a global event schedules, so at one instant
		// they fire ahead of it.
		s.flush(next)
		s.global.Run(time.Duration(next))
		if s.global.stopped {
			// A global event called Stop (or Engine.Stop on the global
			// engine directly); leave every queue intact for resumption.
			s.stopped = true
		}
	}
}

// minNext reports the earliest pending instant across every engine,
// ignoring mailboxes (always empty between windows).
func (s *Sharded) minNext() (Time, bool) {
	var m Time
	ok := false
	for _, sh := range s.shards {
		if t, live := sh.NextAt(); live && (!ok || t < m) {
			m, ok = t, true
		}
	}
	if t, live := s.global.NextAt(); live && (!ok || t < m) {
		m, ok = t, true
	}
	return m, ok
}

// flush delivers all buffered cross-shard sends. Per destination it walks
// the sources in index order and enqueues each mailbox in send order, one
// unbroken run of At calls, so the destination's (at, seq) queue fires them
// by instant and, at one instant, in (src, send order) — deterministic
// regardless of how the window's goroutines interleaved. An arrival before
// the barrier instant would mean the lookahead bound was violated; that is
// a bug in the caller's bound, and it panics loudly rather than silently
// reordering the past.
func (s *Sharded) flush(barrier Time) {
	for dst, sh := range s.shards {
		for src := range s.shards {
			box := s.mail[src][dst]
			for i := range box {
				ev := &box[i]
				if ev.at < barrier {
					panic(fmt.Sprintf("sim: cross-shard send at %v arrived inside window ending %v (lookahead bound violated)", ev.at, barrier))
				}
				sh.At(ev.at, ev.fn)
				*ev = crossEvent{} // release the fn reference
			}
			s.mail[src][dst] = box[:0]
		}
	}
}
