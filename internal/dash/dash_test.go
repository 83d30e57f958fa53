package dash

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/study"
)

// miniStudy is a small but real grid: 4 cells with a scenario axis so
// OnSample traffic flows too.
func miniStudy() *study.Study {
	return &study.Study{
		Name:        "dash-mini",
		Description: "dashboard test grid",
		Apps:        []string{"TVAnts"},
		Strategies:  []string{"urgent-random", "rarest"},
		Scenarios:   []study.Scenario{{Name: "steady"}},
		Seeds:       []int64{3, 4},
		Duration:    study.Duration(15 * time.Second),
		PeerFactor:  0.05,
	}
}

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// sseEvents connects to /events and returns received event names on a
// channel until ctx ends; the connection closes when ctx does. A nil
// channel means the connection failed — callers racing server shutdown
// just skip it; test-critical callers check it.
func sseEvents(ctx context.Context, addr string) <-chan string {
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/events", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	out := make(chan string, 1024)
	go func() {
		defer resp.Body.Close()
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				select {
				case out <- name:
				default:
				}
			}
		}
	}()
	return out
}

// TestDashboardObservesStudy drives a real study through the server and
// checks the JSON endpoints and the SSE stream agree on the outcome.
func TestDashboardObservesStudy(t *testing.T) {
	s := newServer(t)
	defer s.Close()

	st := miniStudy()
	if err := s.BeginStudy(st); err != nil {
		t.Fatal(err)
	}

	// Pre-run: every cell pending, grid fully enumerated.
	var sv studyView
	getJSON(t, "http://"+s.Addr()+"/api/study", &sv)
	if sv.Name != "dash-mini" || sv.Total != 4 || sv.Pending != 4 {
		t.Fatalf("pre-run study view: %+v", sv)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := sseEvents(ctx, s.Addr())
	if events == nil {
		t.Fatal("could not open the SSE stream")
	}

	if _, err := study.Run(context.Background(), st, study.WithObserver(s)); err != nil {
		t.Fatal(err)
	}

	getJSON(t, "http://"+s.Addr()+"/api/study", &sv)
	if sv.Done != 4 || sv.Failed != 0 || sv.Pending != 0 || sv.Running != 0 {
		t.Fatalf("post-run study view: %+v", sv)
	}
	if sv.EtaMs != 0 {
		t.Errorf("finished study reports eta %d ms, want 0", sv.EtaMs)
	}

	var runs []runView
	getJSON(t, "http://"+s.Addr()+"/api/runs", &runs)
	if len(runs) != 4 {
		t.Fatalf("got %d runs", len(runs))
	}
	for i, r := range runs {
		if r.Index != i || r.Status != "done" || r.Label == "" {
			t.Errorf("run %d malformed: %+v", i, r)
		}
		if r.Samples == 0 {
			t.Errorf("scenario run %d streamed no samples", i)
		}
		var samples []sampleView
		getJSON(t, fmt.Sprintf("http://%s/api/series?run=%d", s.Addr(), i), &samples)
		if len(samples) != r.Samples {
			t.Errorf("run %d: /api/series has %d samples, run view says %d", i, len(samples), r.Samples)
		}
		for _, smp := range samples {
			if smp.Run != i || smp.TMs <= 0 {
				t.Errorf("run %d sample malformed: %+v", i, smp)
			}
		}
	}

	// The live stream saw the study happen: hello snapshot plus per-cell
	// transitions and samples.
	cancel()
	counts := map[string]int{}
	for name := range events {
		counts[name]++
	}
	if counts["study"] == 0 || counts["run"] < 8 || counts["sample"] == 0 {
		t.Errorf("SSE stream incomplete: %v", counts)
	}

	// Bad series queries are 400s, not panics.
	for _, q := range []string{"", "?run=-1", "?run=99", "?run=x"} {
		resp, err := http.Get("http://" + s.Addr() + "/api/series" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/api/series%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// The index page serves the embedded UI.
	resp, err := http.Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "<!doctype html>") {
		t.Error("index page is not the embedded UI")
	}
}

// TestSubscribersAttachDetachMidStudy churns SSE subscribers while a study
// runs and pins the no-leak contract: once the study is over and the
// server closed, the goroutine count returns to its baseline. Run under
// -race this is also the concurrency check on the whole broadcast path.
func TestSubscribersAttachDetachMidStudy(t *testing.T) {
	before := runtime.NumGoroutine()

	s := newServer(t)
	st := miniStudy()
	if err := s.BeginStudy(st); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				if ch := sseEvents(ctx, s.Addr()); ch != nil {
					for range ch {
					}
				}
				cancel()
			}
		}()
	}

	if _, err := study.Run(context.Background(), st, study.WithObserver(s)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Give exiting handlers a beat, then compare against the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestSlowSubscriberNeverBlocks pins the bounded-buffer contract: a
// subscriber that stops reading must not stall broadcasts, and the events
// it misses are counted against it, not silently lost.
func TestSlowSubscriberNeverBlocks(t *testing.T) {
	s := newServer(t)
	defer s.Close()
	s.subBuffer = 4 // tiny buffer so a handful of events overflows it

	st := miniStudy()
	if err := s.BeginStudy(st); err != nil {
		t.Fatal(err)
	}

	// A subscriber whose channel is never drained: once its 4-slot buffer
	// fills, every further event must be counted as dropped, not waited
	// on. (A raw /events connection can hide this behind kernel socket
	// buffering, so the overflow is pinned at the subscriber level.)
	stuck, _ := s.subscribe()
	defer s.unsubscribe(stuck)

	// And a raw connection that sends the request and then never reads,
	// exercising the same path through a real handler.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /events HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n", s.Addr())
	time.Sleep(50 * time.Millisecond) // let the handler register the subscriber

	// Broadcast far more events than the buffer holds; each call must
	// return promptly no matter what any subscriber does.
	ev := event("study", map[string]int{"tick": 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.broadcast(ev)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast blocked on a slow subscriber")
	}

	if got := stuck.dropped.Load(); got != 100-int64(s.subBuffer) {
		t.Errorf("stuck subscriber dropped %d events, want %d", got, 100-s.subBuffer)
	}
}

// TestRunViewsCarryTheWholeCoordinate: two cells that differ only in queue
// depth (the awareness-ablation shape) are two distinct /api/runs records on
// their coordinate fields alone — not only in the rendered label.
func TestRunViewsCarryTheWholeCoordinate(t *testing.T) {
	s := newServer(t)
	defer s.Close()

	st := miniStudy()
	st.QueueDepths = []int{0, 2}
	if err := s.BeginStudy(st); err != nil {
		t.Fatal(err)
	}
	infos, err := st.RunInfos()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var runs []runView
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/api/runs: %v", err)
	}
	if len(runs) != len(infos) || len(runs) != 8 {
		t.Fatalf("%d run views over a %d-cell grid, want 8", len(runs), len(infos))
	}
	seen := map[runView]int{}
	for i, r := range runs {
		if r.Label != infos[i].Label() || r.QueueDepth != infos[i].QueueDepth {
			t.Errorf("run %d: label %q depth %d, want %q depth %d",
				i, r.Label, r.QueueDepth, infos[i].Label(), infos[i].QueueDepth)
		}
		coord := runView{App: r.App, Strategy: r.Strategy, Scenario: r.Scenario,
			Variant: r.Variant, QueueDepth: r.QueueDepth, Seed: r.Seed}
		if j, dup := seen[coord]; dup {
			t.Errorf("runs %d and %d share the coordinate %+v", j, i, coord)
		}
		seen[coord] = i
	}
	// Depth 0 is the default and stays off the wire, like the other
	// default coordinates.
	if n := strings.Count(string(body), `"queue_depth"`); n != 4 {
		t.Errorf("%d of 8 records carry queue_depth, want the 4 bounded ones:\n%s", n, body)
	}
}

// TestFleetNotesAndWorkerAttribution pins the distributed-run surface: a
// RunInfo carrying a Worker shows up in the run views, and Server.Note
// events reach /api/fleet, the SSE stream, and late subscribers' snapshots.
func TestFleetNotesAndWorkerAttribution(t *testing.T) {
	s := newServer(t)
	defer s.Close()

	st := miniStudy()
	if err := s.BeginStudy(st); err != nil {
		t.Fatal(err)
	}
	infos, err := st.RunInfos()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := sseEvents(ctx, s.Addr())
	if events == nil {
		t.Fatal("could not open the SSE stream")
	}

	s.Note("worker", "worker w1 joined")
	info := infos[0]
	info.Worker = "w1"
	s.OnRunStart(info)
	s.OnRunDone(info, experiment.Summary{MeanContinuity: 0.9}, nil)
	s.Note("lease", "lease on cell 2 expired; requeued")

	var runs []runView
	getJSON(t, "http://"+s.Addr()+"/api/runs", &runs)
	if runs[0].Worker != "w1" || runs[0].Status != "done" {
		t.Fatalf("run view lost worker attribution: %+v", runs[0])
	}
	if runs[1].Worker != "" {
		t.Fatalf("unattributed cell grew a worker: %+v", runs[1])
	}

	var notes []noteView
	getJSON(t, "http://"+s.Addr()+"/api/fleet", &notes)
	if len(notes) != 2 || notes[0].Kind != "worker" || notes[1].Kind != "lease" ||
		!strings.Contains(notes[1].Text, "requeued") {
		t.Fatalf("fleet notes: %+v", notes)
	}

	// A subscriber arriving after the notes still sees them: the snapshot
	// replays stored notes.
	lateCtx, lateCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer lateCancel()
	late := sseEvents(lateCtx, s.Addr())
	if late == nil {
		t.Fatal("could not open the late SSE stream")
	}
	lateFleet := 0
	for name := range late {
		if name == "fleet" {
			lateFleet++
			if lateFleet == 2 {
				lateCancel()
			}
		}
	}
	if lateFleet != 2 {
		t.Errorf("late subscriber snapshot replayed %d fleet notes, want 2", lateFleet)
	}

	// The live stream saw both notes as they happened. Wait for them before
	// cancelling: the reader goroutine forwards on its own schedule, and a
	// cancel that wins the race would cut the second one off.
	liveFleet := 0
	timeout := time.After(5 * time.Second)
	for liveFleet < 2 {
		select {
		case name, open := <-events:
			if !open {
				t.Fatalf("live stream closed after %d fleet events, want 2", liveFleet)
			}
			if name == "fleet" {
				liveFleet++
			}
		case <-timeout:
			t.Fatalf("live stream delivered %d fleet events in 5s, want 2", liveFleet)
		}
	}
	cancel()
	for name := range events {
		if name == "fleet" {
			liveFleet++
		}
	}
	if liveFleet != 2 {
		t.Errorf("live stream delivered %d fleet events, want 2", liveFleet)
	}
}
