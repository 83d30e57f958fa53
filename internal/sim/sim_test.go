package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunUntilIdle()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Errorf("clock = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var trace []string
	e.Schedule(time.Second, func() {
		trace = append(trace, "outer")
		e.Schedule(time.Second, func() { trace = append(trace, "inner") })
		// Zero-delay event fires at the same instant, after already
		// queued same-instant events, before later ones.
		e.Schedule(0, func() { trace = append(trace, "zero") })
	})
	e.Schedule(1500*time.Millisecond, func() { trace = append(trace, "mid") })
	e.RunUntilIdle()
	want := []string{"outer", "zero", "mid", "inner"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	e := New(1)
	fired := 0
	e.Schedule(time.Second, func() { fired++ })
	e.Schedule(3*time.Second, func() { fired++ })
	e.Run(2 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s (rest at horizon)", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// Resume past the horizon.
	e.Run(5 * time.Second)
	if fired != 2 {
		t.Errorf("after resume fired = %d, want 2", fired)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	fired := 0
	e.Schedule(time.Second, func() { fired++; e.Stop() })
	e.Schedule(2*time.Second, func() { fired++ })
	e.Run(10 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop should halt the run)", fired)
	}
	e.Run(10 * time.Second) // resumes
	if fired != 2 {
		t.Errorf("after resume fired = %d, want 2", fired)
	}
	// RunUntilIdle resumes a stopped engine too.
	e.Schedule(time.Second, func() { fired++; e.Stop() })
	e.Schedule(2*time.Second, func() { fired++ })
	e.RunUntilIdle()
	e.RunUntilIdle()
	if fired != 4 || e.Pending() != 0 {
		t.Errorf("after RunUntilIdle twice fired = %d, pending %d; want 4, 0", fired, e.Pending())
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	tm.Cancel()
	e.RunUntilIdle()
	if fired {
		t.Error("cancelled timer fired")
	}
	tm.Cancel() // double cancel is a no-op
	var nilTimer *Timer
	nilTimer.Cancel() // nil cancel is a no-op
}

// TestCancelledTimerNotProcessed: a cancelled timer's callback is never
// processed. Its event stays queued and fires as a no-op, so Processed
// counts it like any other.
func TestCancelledTimerNotProcessed(t *testing.T) {
	e := New(1)
	e.Schedule(time.Second, func() {})
	tm := e.After(2*time.Second, func() { t.Error("cancelled timer ran") })
	e.Schedule(3*time.Second, func() {})
	tm.Cancel()
	e.RunUntilIdle()
	if e.Processed() != 3 {
		t.Errorf("Processed = %d, want 3 (the no-op event counts)", e.Processed())
	}
}

// TestPendingExcludesCancelled: Pending counts a cancelled timer until its
// instant, when the no-op event fires, and excludes it from then on.
func TestPendingExcludesCancelled(t *testing.T) {
	e := New(1)
	tm := e.After(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	tm.Cancel()
	if e.Pending() != 2 {
		t.Errorf("Pending = %d after cancel, want 2 (stays queued)", e.Pending())
	}
	e.Run(1500 * time.Millisecond)
	if e.Pending() != 1 {
		t.Errorf("Pending = %d past the cancelled instant, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", e.Pending())
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := New(1)
	fired := 0
	tm := e.After(time.Second, func() { fired++ })
	e.Schedule(5*time.Second, func() {})
	e.RunUntilIdle()
	tm.Cancel() // already fired: must not queue anything
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0 after cancel-after-fire", e.Pending())
	}
}

func TestRunHorizonWithCancelledHead(t *testing.T) {
	// A cancelled timer at the head of the queue fires as a no-op and must
	// not let Run execute an event that lies beyond the horizon.
	e := New(1)
	tm := e.After(time.Second, func() {})
	fired := false
	e.Schedule(3*time.Second, func() { fired = true })
	tm.Cancel()
	e.Run(2 * time.Second)
	if fired {
		t.Error("event beyond horizon executed (cancelled head mishandled)")
	}
	if e.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s", e.Now())
	}
	e.Run(5 * time.Second)
	if !fired {
		t.Error("event not executed after horizon extension")
	}
}

func TestTimerFires(t *testing.T) {
	e := New(1)
	fired := false
	e.After(time.Second, func() { fired = true })
	e.RunUntilIdle()
	if !fired {
		t.Error("timer did not fire")
	}
}

func TestEvery(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(0, time.Second, func() { count++ })
	e.Run(10*time.Second + time.Millisecond)
	if count != 11 { // t=0s..10s inclusive
		t.Errorf("count = %d, want 11", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New(1)
	assertPanics(t, func() { e.Schedule(-time.Second, func() {}) })
	assertPanics(t, func() { e.After(-time.Second, func() {}) })
	assertPanics(t, func() { e.Every(0, 0, func() {}) })
	assertPanics(t, func() { e.At(Time(-1), func() {}) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := New(seed)
		var out []int64
		e.Every(0, 100*time.Millisecond, func() {
			e.After(time.Duration(e.Rand().Int63n(int64(50*time.Millisecond))), func() {
				out = append(out, int64(e.Now())+e.Rand().Int63n(1000))
			})
		})
		e.Run(10 * time.Second)
		return out
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical jittered runs")
	}
}

// Property: any batch of events fires in nondecreasing time order and the
// clock never moves backwards.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		e := New(3)
		var fired []Time
		for _, d := range delaysMs {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.RunUntilIdle()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProcessedCount(t *testing.T) {
	e := New(1)
	for i := 0; i < 57; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunUntilIdle()
	if e.Processed() != 57 {
		t.Errorf("Processed = %d, want 57", e.Processed())
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(2 * time.Second)
	if a.Seconds() != 2 {
		t.Errorf("Seconds = %v", a.Seconds())
	}
	if a.Add(time.Second) != Time(3*time.Second) {
		t.Errorf("Add failed")
	}
	if a.Sub(Time(time.Second)) != time.Second {
		t.Errorf("Sub failed")
	}
	if a.String() != "2s" {
		t.Errorf("String = %q", a.String())
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New(1)
	rng := rand.New(rand.NewSource(2))
	var churn func()
	churn = func() {
		e.Schedule(time.Duration(rng.Int63n(int64(time.Second))), churn)
	}
	for i := 0; i < 64; i++ {
		churn()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
