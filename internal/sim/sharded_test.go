package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// crossArrival is one cross-shard send as its destination fired it: the
// instant, the window it was sent in (barriers passed before the send), the
// source shard and the source's send index.
type crossArrival struct {
	at                Time
	window, src, send int
}

// flushOrderRun plays script on a sharded coordinator and returns, per
// destination, the cross sends in the order they fired. script[0] picks 2–4
// shards; each later triple of bytes is one send: its source and
// destination, the source's instant (0–15 ms), and how far past the
// earliest legal arrival (0–2 ms) it lands. Every instant is a whole
// millisecond, so sends from different sources and windows often share
// one. A global event every lookahead counts the barriers: with that period
// every window ends on one, so the count a shard reads is its window's
// index.
func flushOrderRun(t *testing.T, script []byte) [][]crossArrival {
	const la = 4 * time.Millisecond
	n := 2 + int(script[0]%3)
	s := NewSharded(1, n, la)
	windows := 0
	s.Global().Every(la, la, func() { windows++ })
	sent := make([]int, n)
	got := make([][]crossArrival, n)
	for i := 1; i+2 < len(script) && i < 3*64; i += 3 {
		src := int(script[i]) % n
		dst := (src + 1 + int(script[i]/byte(n))%(n-1)) % n
		when := Time(time.Duration(script[i+1]%16) * time.Millisecond)
		late := time.Duration(script[i+2]%3) * time.Millisecond
		s.Shard(src).At(when, func() {
			a := crossArrival{
				at:     s.Shard(src).Now().Add(la + late),
				window: windows, src: src, send: sent[src],
			}
			sent[src]++
			s.Send(src, dst, a.at, func() {
				if now := s.Shard(dst).Now(); now != a.at {
					t.Errorf("send %+v fired at %v", a, now)
				}
				got[dst] = append(got[dst], a)
			})
		})
	}
	s.Run(40 * time.Millisecond)
	return got
}

// FuzzShardedFlushOrder: each destination fires its cross sends by instant,
// then by window, and within one barrier's flush by (source shard, send
// order), whatever order the window's goroutines ran in; and two runs of
// one script fire identically.
func FuzzShardedFlushOrder(f *testing.F) {
	// Three shards; at 5 ms shard 2 sends once and shard 1 twice to shard
	// 0, all landing at 9 ms: the flush must fire shard 1's two first.
	f.Add([]byte{1, 2, 5, 0, 4, 5, 0, 4, 5, 0})
	rng := rand.New(rand.NewSource(1))
	for range 6 {
		script := make([]byte, 1+3*40)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		a, b := flushOrderRun(t, script), flushOrderRun(t, script)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two runs fired differently:\n%v\n%v", a, b)
		}
		for dst, log := range a {
			for i := 1; i < len(log); i++ {
				if p, q := log[i-1], log[i]; !crossBefore(p, q) {
					t.Fatalf("shard %d fired %+v before %+v", dst, p, q)
				}
			}
		}
	})
}

// crossBefore orders arrivals by (at, window, src, send).
func crossBefore(p, q crossArrival) bool {
	if p.at != q.at {
		return p.at < q.at
	}
	if p.window != q.window {
		return p.window < q.window
	}
	if p.src != q.src {
		return p.src < q.src
	}
	return p.send < q.send
}

// At one instant on one shard, an event the shard scheduled during a window,
// a cross send that window delivered, and an event a global event at the
// window's barrier scheduled fire in that order: the flush runs before the
// barrier's global events, so its sends take the shard's engine seqs first.
func TestShardedSameInstantLocalCrossGlobal(t *testing.T) {
	const la = 10 * time.Millisecond
	s := NewSharded(1, 2, la)
	at := Time(12 * time.Millisecond)
	var order []string
	record := func(what string) func() {
		return func() { order = append(order, what) }
	}
	// The window is [1 ms, 5 ms]: the global event at 5 ms closes it.
	s.Shard(0).Schedule(time.Millisecond, func() { s.Shard(0).At(at, record("local")) })
	s.Shard(1).Schedule(time.Millisecond, func() { s.Send(1, 0, at, record("cross")) })
	s.Global().Schedule(5*time.Millisecond, func() { s.Shard(0).At(at, record("global")) })
	s.Run(50 * time.Millisecond)
	if want := []string{"local", "cross", "global"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
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

// TestShardedRunsEventsAtTheHorizon: like Engine.Run, a sharded Run fires
// the events due at its horizon itself, on a shard and on the global
// engine, and leaves later ones queued.
func TestShardedRunsEventsAtTheHorizon(t *testing.T) {
	s := NewSharded(1, 2, time.Millisecond)
	var fired []string
	s.Shard(1).Schedule(10*time.Millisecond, func() { fired = append(fired, "shard") })
	s.Global().Schedule(10*time.Millisecond, func() { fired = append(fired, "global") })
	s.Shard(0).Schedule(11*time.Millisecond, func() { fired = append(fired, "later") })
	s.Run(10 * time.Millisecond)
	if len(fired) != 2 || slices.Contains(fired, "later") {
		t.Errorf("Run to 10ms fired %v, want the shard and global events due at 10ms", fired)
	}
}

// TestShardSeedsDiffer: each shard draws from a stream of its own.
func TestShardSeedsDiffer(t *testing.T) {
	seen := map[int64]int64{}
	for i := range int64(8) {
		z := mixSeed(42, i)
		if j, dup := seen[z]; dup {
			t.Errorf("shards %d and %d share seed %d", j, i, z)
		}
		seen[z] = i
	}
}
