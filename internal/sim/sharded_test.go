package sim

import (
	"fmt"
	"testing"
	"time"
)

// shardedTrace runs a synthetic cross-shard workload and returns one event
// trace per shard. Each trace slice is appended to only by its own shard's
// events (ticker lines by the shard, arrival lines by the destination), so
// the traces are data-race-free and — if the coordinator is deterministic —
// a pure function of (seed, n).
func shardedTrace(n int, seed int64, horizon time.Duration) [][]string {
	const la = 10 * time.Millisecond
	s := NewSharded(seed, n, la)
	traces := make([][]string, n)
	for i := 0; i < n; i++ {
		i := i
		eng := s.Shard(i)
		eng.Every(0, 3*time.Millisecond, func() {
			eng.After(time.Duration(eng.Rand().Int63n(int64(time.Millisecond))), func() {
				now := eng.Now()
				traces[i] = append(traces[i], fmt.Sprintf("tick %d@%v r%d", i, now, eng.Rand().Int63n(1000)))
				dst := (i + 1) % n
				at := now.Add(la + time.Duration(eng.Rand().Int63n(int64(time.Millisecond))))
				s.Send(i, dst, at, func() {
					traces[dst] = append(traces[dst], fmt.Sprintf("recv %d<-%d@%v", dst, i, s.Shard(dst).Now()))
				})
			})
		})
	}
	s.Run(horizon)
	return traces
}

func TestShardedDeterminism(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		a := shardedTrace(n, 7, 200*time.Millisecond)
		b := shardedTrace(n, 7, 200*time.Millisecond)
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("n=%d shard %d: trace lengths differ: %d vs %d", n, i, len(a[i]), len(b[i]))
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("n=%d shard %d diverges at %d: %q vs %q", n, i, j, a[i][j], b[i][j])
				}
			}
		}
		if len(a[0]) == 0 {
			t.Fatalf("n=%d: empty trace — workload never ran", n)
		}
	}
}

// One shard must be the serial engine exactly: same event sequence, same
// RNG stream, same processed count, no goroutines.
func TestShardedOneShardMatchesSerial(t *testing.T) {
	workload := func(eng *Engine) *[]string {
		out := new([]string)
		eng.Every(0, 7*time.Millisecond, func() {
			eng.After(time.Duration(eng.Rand().Int63n(int64(3*time.Millisecond))), func() {
				*out = append(*out, fmt.Sprintf("%v r%d", eng.Now(), eng.Rand().Int63n(1000)))
			})
		})
		return out
	}
	serial := New(5)
	sp := workload(serial)
	serial.Run(300 * time.Millisecond)

	sh := NewSharded(5, 1, 0)
	if sh.Shard(0) != sh.Global() {
		t.Fatal("one-shard coordinator must expose the global engine as the shard")
	}
	pp := workload(sh.Shard(0))
	sh.Run(300 * time.Millisecond)

	so, po := *sp, *pp
	if len(so) == 0 || len(so) != len(po) {
		t.Fatalf("trace lengths: serial %d, sharded %d", len(so), len(po))
	}
	for i := range so {
		if so[i] != po[i] {
			t.Fatalf("diverges at %d: %q vs %q", i, so[i], po[i])
		}
	}
	if serial.Processed() != sh.Processed() {
		t.Errorf("Processed: serial %d, sharded %d", serial.Processed(), sh.Processed())
	}
	if sh.Now() != Time(300*time.Millisecond) {
		t.Errorf("clock = %v, want 300ms", sh.Now())
	}
}

// Mailbox flush must deliver same-instant cross sends ordered by
// (at, src shard, seq) no matter which goroutine finished first.
func TestShardedFlushOrdering(t *testing.T) {
	const la = 10 * time.Millisecond
	s := NewSharded(1, 3, la)
	var got []string
	at := Time(la + 5*time.Millisecond)
	// Shards 1 and 2 each send two same-instant events to shard 0 from
	// inside the first window; the arrival order must be src 1 (seq order)
	// then src 2 (seq order), regardless of scheduling.
	for _, src := range []int{2, 1} { // registration order must not matter
		src := src
		s.Shard(src).Schedule(5*time.Millisecond, func() {
			for k := 0; k < 2; k++ {
				k := k
				s.Send(src, 0, at, func() {
					got = append(got, fmt.Sprintf("%d.%d", src, k))
				})
			}
		})
	}
	s.Run(100 * time.Millisecond)
	want := []string{"1.0", "1.1", "2.0", "2.1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flush order = %v, want %v", got, want)
		}
	}
}

// A global event pins a window barrier; shard events at exactly that
// instant run in the closing window (shard phase), then the global event
// runs with every clock resting exactly on the barrier.
func TestShardedGlobalBarrierTiming(t *testing.T) {
	const la = 10 * time.Millisecond
	s := NewSharded(1, 2, la)
	bar := Time(15 * time.Millisecond)
	var order []string
	s.Shard(0).At(bar, func() { order = append(order, "shard@barrier") })
	s.Global().At(bar, func() {
		order = append(order, "global@barrier")
		if s.Shard(0).Now() != bar || s.Shard(1).Now() != bar {
			t.Errorf("shard clocks at global event: %v, %v, want %v",
				s.Shard(0).Now(), s.Shard(1).Now(), bar)
		}
	})
	// Keep the shards busy before and after the barrier.
	s.Shard(1).Schedule(time.Millisecond, func() {})
	s.Shard(1).Schedule(20*time.Millisecond, func() {})
	s.Run(50 * time.Millisecond)
	if len(order) != 2 || order[0] != "shard@barrier" || order[1] != "global@barrier" {
		t.Fatalf("order = %v, want [shard@barrier global@barrier]", order)
	}
}

// A cross send landing exactly on the window boundary is enqueued behind
// the barrier and executes first thing in the next window, at its exact
// instant — never early, never time-skewed.
func TestShardedSendOnWindowBoundary(t *testing.T) {
	const la = 10 * time.Millisecond
	s := NewSharded(1, 2, la)
	fired := false
	s.Shard(0).Schedule(0, func() {
		// The window is [0, la] (m=0, no closer global event), so this
		// lands exactly on the boundary.
		s.Send(0, 1, Time(la), func() {
			fired = true
			if now := s.Shard(1).Now(); now != Time(la) {
				t.Errorf("boundary send executed at %v, want %v", now, Time(la))
			}
		})
	})
	s.Run(100 * time.Millisecond)
	if !fired {
		t.Fatal("boundary send never executed")
	}
}

func TestShardedStopFromGlobalAndResume(t *testing.T) {
	const la = 10 * time.Millisecond
	s := NewSharded(1, 2, la)
	// Per-shard counters: shard events run concurrently and must not
	// share mutable state (the same rule the overlay lives by).
	var counts [2]int
	for i := 0; i < 2; i++ {
		i := i
		s.Shard(i).Every(0, 5*time.Millisecond, func() { counts[i]++ })
	}
	s.Global().Schedule(20*time.Millisecond, func() { s.Stop() })
	s.Run(time.Second)
	if s.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock after Stop = %v, want 20ms", s.Now())
	}
	stopped := counts[0] + counts[1]
	if stopped == 0 {
		t.Fatal("nothing ran before Stop")
	}
	s.Run(40 * time.Millisecond) // resumes where Stop left off
	if counts[0]+counts[1] <= stopped {
		t.Errorf("run did not resume after Stop (count %d -> %d)", stopped, counts[0]+counts[1])
	}
	if s.Now() != Time(40*time.Millisecond) {
		t.Errorf("clock after resume = %v, want 40ms", s.Now())
	}
}

func TestShardedPendingCountsMailboxes(t *testing.T) {
	s := NewSharded(1, 2, time.Millisecond)
	s.Shard(0).Schedule(time.Millisecond, func() {})
	s.Global().Schedule(time.Millisecond, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	// White box: a buffered mailbox entry counts as pending.
	s.parallel = true
	s.Send(0, 1, Time(5*time.Millisecond), func() {})
	s.parallel = false
	if got := s.Pending(); got != 3 {
		t.Errorf("Pending with mailbox entry = %d, want 3", got)
	}
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	s := NewSharded(1, 2, time.Millisecond)
	s.parallel = true
	s.Send(0, 1, Time(time.Millisecond), func() {})
	s.parallel = false
	assertPanics(t, func() { s.flush(Time(2 * time.Millisecond)) })
}

func TestShardedConstructorPanics(t *testing.T) {
	assertPanics(t, func() { NewSharded(1, 0, time.Millisecond) })
	assertPanics(t, func() { NewSharded(1, 2, 0) })
	// One shard needs no lookahead.
	if s := NewSharded(1, 1, 0); s.N() != 1 {
		t.Errorf("N = %d, want 1", s.N())
	}
}

// Pending must stay exact under a cancellation-heavy workload whose ghosts
// die in every corner of the timing wheel: some in the current tick, some
// in higher levels (cancelled before their spill), some after cascading
// down, interleaved with live events that do run.
func TestPendingGhostHeavyWorkload(t *testing.T) {
	e := New(9)
	type entry struct {
		tm *Timer
		d  time.Duration
	}
	var ts []entry
	fired := 0
	// Delays spanning the wheel's levels: sub-tick, few-tick, and far
	// enough to land two levels up.
	for i := 0; i < 400; i++ {
		d := time.Duration(1+i) * 700 * time.Microsecond
		if i%3 == 0 {
			d = time.Duration(1+i) * 97 * time.Millisecond // higher levels
		}
		ts = append(ts, entry{e.After(d, func() { fired++ }), d})
	}
	// Wave 1: cancel every other timer before anything runs.
	live := len(ts)
	for i := 0; i < len(ts); i += 2 {
		ts[i].tm.Cancel()
		live--
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending = %d, want %d after mass cancel", got, live)
	}
	// Run partway, then wave 2: cancel more — no-ops on already-fired
	// timers, fresh ghosts on pending ones (some already cascaded down).
	const cut = 5 * time.Second
	e.Run(cut)
	for i := 1; i < len(ts); i += 4 {
		ts[i].tm.Cancel()
	}
	wantPending, wantFired := 0, 0
	for i, en := range ts {
		switch {
		case i%2 == 0: // wave 1: never fires
		case i%4 == 1: // wave 2: fired only if its instant beat the cut
			if en.d <= cut {
				wantFired++
			}
		default: // never cancelled
			wantFired++
			if en.d > cut {
				wantPending++
			}
		}
	}
	if got := e.Pending(); got != wantPending {
		t.Fatalf("Pending = %d, want %d after mid-run cancels", got, wantPending)
	}
	e.RunUntilIdle()
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0 after drain", got)
	}
	if fired != wantFired {
		t.Errorf("fired = %d, want %d", fired, wantFired)
	}
}
