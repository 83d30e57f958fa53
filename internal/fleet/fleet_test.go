package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/scenario"
	"napawine/internal/study"
)

// testBound bounds every wait in this package's tests. Each test finishes
// in well under a second; the bound is far below dialBudget, so a fault
// that leaves a worker redialing fails its test in seconds.
const testBound = 10 * time.Second

// fleetStudy is the test grid: one app, four seeds — four deterministic
// cells, each sub-second at this duration and scale.
func fleetStudy() *study.Study {
	return &study.Study{
		Name:       "fleet-test",
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{1, 2, 3, 4},
		Duration:   study.Duration(15 * time.Second),
		PeerFactor: 0.05,
	}
}

// doomedStudy fails in every cell, and only at run time: its arrivals
// window has no deferred pool to draw from, which Validate cannot see.
func doomedStudy(seeds ...int64) *study.Study {
	return &study.Study{
		Name: "fleet-doomed", Apps: []string{"TVAnts"}, Seeds: seeds,
		Scenarios: []study.Scenario{{Spec: &scenario.Spec{
			Name:   "doomed",
			Events: []scenario.Event{{Kind: scenario.Arrivals, From: 0.1, To: 0.2}},
		}}},
		Duration: study.Duration(15 * time.Second), PeerFactor: 0.05,
	}
}

// renderTable pins a result to its presentation bytes — the fleet's
// byte-identical acceptance bar.
func renderTable(t *testing.T, res *study.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.ComparisonTable().Render(&buf); err != nil {
		t.Fatalf("render table: %v", err)
	}
	return buf.String()
}

// renderSVGs pins the result's metric-bar artifacts (-svg-out's payload).
func renderSVGs(t *testing.T, res *study.Result) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, a := range res.MetricBars() {
		var buf bytes.Buffer
		if err := a.Chart.Render(&buf); err != nil {
			t.Fatalf("render %s: %v", a.Name, err)
		}
		out[a.Name] = buf.String()
	}
	return out
}

// obsRec is a concurrency-safe recording observer.
type obsRec struct {
	mu      sync.Mutex
	starts  []study.RunInfo
	dones   []study.RunInfo
	errs    map[int]error
	samples map[int][]experiment.SeriesSample
}

func newObsRec() *obsRec {
	return &obsRec{errs: map[int]error{}, samples: map[int][]experiment.SeriesSample{}}
}

func (o *obsRec) OnRunStart(info study.RunInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.starts = append(o.starts, info)
}

func (o *obsRec) OnRunDone(info study.RunInfo, _ experiment.Summary, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dones = append(o.dones, info)
	if err != nil {
		o.errs[info.Index] = err
	}
}

func (o *obsRec) OnSample(info study.RunInfo, s experiment.SeriesSample) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.samples[info.Index] = append(o.samples[info.Index], s)
}

// doneWorkers returns the set of workers attributed across OnRunDone.
func (o *obsRec) doneWorkers() map[string]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := map[string]int{}
	for _, info := range o.dones {
		m[info.Worker]++
	}
	return m
}

// runFleet starts one worker per config beside coord.Wait and returns Wait's
// outcome with each worker's error once every worker has returned. The
// first worker error cancels Wait's context with itself as the cause and
// becomes Wait's error, so a worker that cannot take part fails the test at
// once instead of leaving Wait to hang. ctx bounds the workers and Wait;
// a worker's error does not stop its siblings, which learn how the study
// ended from the coordinator.
func runFleet(ctx context.Context, coord *Coordinator, cfgs ...WorkerConfig) (*study.Result, []error, error) {
	waitCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	werrs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		cfg.Addr = coord.Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if werrs[i] = RunWorker(ctx, cfg); werrs[i] != nil {
				cancel(werrs[i])
			}
		}()
	}
	res, err := coord.Wait(waitCtx)
	if errors.Is(err, context.Canceled) {
		err = context.Cause(waitCtx)
	}
	wg.Wait()
	return res, werrs, err
}

// TestWorkerRunsItsSlotBudget: a worker runs Workers cells at a time, or
// GOMAXPROCS when Workers is 0, and says so in its join line.
func TestWorkerRunsItsSlotBudget(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{3, 3},
	} {
		coord, err := NewCoordinator(CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu    sync.Mutex
			lines []string
		)
		logf := func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		}
		ctx, cancel := context.WithTimeout(context.Background(), testBound)
		werr := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w", Workers: tc.workers, Log: logf})
		cancel()
		if err := coord.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if werr != nil {
			t.Fatalf("Workers %d: %v", tc.workers, werr)
		}
		want := fmt.Sprintf("running %d cell(s) at a time", tc.want)
		if len(lines) == 0 || !strings.Contains(lines[0], "joined") || !strings.HasSuffix(lines[0], want) {
			t.Errorf("Workers %d: join line %q, want one ending %q", tc.workers, lines, want)
		}
	}
}

// TestFleetParityTwoWorkers is the tentpole's core acceptance: one
// coordinator plus two workers must produce a byte-identical comparison
// table and byte-identical metric SVGs versus a single-process study.Run.
func TestFleetParityTwoWorkers(t *testing.T) {
	st := fleetStudy()
	serial, err := study.Run(context.Background(), st)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}

	obs := newObsRec()
	coord, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", LeaseTTL: 10 * time.Second,
		Observers: []study.Observer{obs}, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	res, werrs, err := runFleet(ctx, coord,
		WorkerConfig{Name: "w1", Workers: 1, Log: t.Logf},
		WorkerConfig{Name: "w2", Workers: 1, Log: t.Logf})
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, werr := range werrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}

	if got, want := renderTable(t, res), renderTable(t, serial); got != want {
		t.Fatalf("fleet table differs from serial run:\n%s\nvs\n%s", got, want)
	}
	if got, want := renderSVGs(t, res), renderSVGs(t, serial); !reflect.DeepEqual(got, want) {
		t.Fatal("fleet metric SVGs differ from serial run")
	}

	if len(obs.dones) != st.Runs() {
		t.Fatalf("observer saw %d completions over a %d-cell grid", len(obs.dones), st.Runs())
	}
	for worker := range obs.doneWorkers() {
		if worker != "w1" && worker != "w2" {
			t.Errorf("completion attributed to unknown worker %q", worker)
		}
	}
	if len(obs.starts) < st.Runs() {
		t.Errorf("observer saw %d starts over a %d-cell grid", len(obs.starts), st.Runs())
	}
}

// TestFleetStreamsSamples: a scenario cell's time-series buckets must fan
// into the coordinator's observers exactly as a local run streams them —
// this is what keeps the live dashboard working over a distributed run.
func TestFleetStreamsSamples(t *testing.T) {
	st := &study.Study{
		Name:       "fleet-samples",
		Apps:       []string{"TVAnts"},
		Scenarios:  []study.Scenario{{Name: "flashcrowd"}},
		Seeds:      []int64{1},
		Duration:   study.Duration(20 * time.Second),
		PeerFactor: 0.05,
	}
	serialObs := newObsRec()
	if _, err := study.Run(context.Background(), st, study.WithObserver(serialObs)); err != nil {
		t.Fatalf("serial Run: %v", err)
	}

	fleetObs := newObsRec()
	coord, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", Observers: []study.Observer{fleetObs}, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	if _, _, err := runFleet(ctx, coord, WorkerConfig{Name: "w1", Workers: 1}); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if len(serialObs.samples[0]) == 0 {
		t.Fatal("serial scenario run streamed no samples; test is vacuous")
	}
	if !reflect.DeepEqual(fleetObs.samples[0], serialObs.samples[0]) {
		t.Fatalf("fleet streamed %d samples, serial %d, or values differ",
			len(fleetObs.samples[0]), len(serialObs.samples[0]))
	}
}

// TestFleetWorkerDeathRequeues is the fault-injection satellite: a worker
// that dies after computing (but never reporting) a cell holds its lease to
// the grave; the lease expires, the cell requeues, a second worker finishes
// the grid, and the final table is still byte-identical to a serial run.
func TestFleetWorkerDeathRequeues(t *testing.T) {
	st := fleetStudy()
	serial, err := study.Run(context.Background(), st)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}

	var mu sync.Mutex
	var expiries []string
	coord, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", LeaseTTL: 500 * time.Millisecond,
		Log: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "expired") {
				mu.Lock()
				defer mu.Unlock()
				expiries = append(expiries, line)
			}
		},
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()

	// Worker 1 reports its first cell, then "dies" mid-second-cell: the
	// cell is computed but the kill lands before the result posts, so the
	// coordinator only ever learns about it by lease expiry.
	killed := errors.New("simulated kill")
	var w1cells int
	w1err := RunWorker(ctx, WorkerConfig{
		Addr: coord.Addr(), Name: "w1", Workers: 1, Log: t.Logf,
		beforeResult: func(int, *experiment.Summary, func(experiment.SeriesSample)) error {
			w1cells++
			if w1cells >= 2 {
				return killed
			}
			return nil
		},
	})
	if !errors.Is(w1err, killed) {
		t.Fatalf("worker 1 exited with %v, want the simulated kill", w1err)
	}
	if got := coord.Remaining(); got != 3 {
		t.Fatalf("%d cells remain after worker 1's death, want 3 (one reported, one died holding its lease)", got)
	}

	res, _, err := runFleet(ctx, coord, WorkerConfig{Name: "w2", Workers: 1, Log: t.Logf})
	if err != nil {
		t.Fatalf("worker 2: %v", err)
	}
	if got, want := renderTable(t, res), renderTable(t, serial); got != want {
		t.Fatalf("post-requeue table differs from serial run:\n%s\nvs\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"fleet: lease on cell 2/4 (TVAnts seed 2) from w1 expired; requeued"}; !slices.Equal(expiries, want) {
		t.Errorf("expiry log %q, want %q", expiries, want)
	}
}

// postJSON drives the wire protocol directly for the handler-level tests.
func postJSON(t *testing.T, addr, path string, in any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, addr, path, b)
}

// postRaw posts b as it stands, for bodies no marshaller would produce.
func postRaw(t *testing.T, addr, path string, b []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/fleet/v1/"+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func leaseAs(t *testing.T, addr, worker string) leaseReply {
	t.Helper()
	resp, body := postJSON(t, addr, "lease", leaseRequest{Worker: worker})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("lease as %s: %s (%s): %s", worker, resp.Status, resp.Header.Get("Content-Type"), body)
	}
	var rep leaseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCoordinatorRefusesSubMillisecondLease: workers are told the lease
// window in whole milliseconds, so a positive TTL under 1ms would reach
// them as 0 ("use the default") and every lease would expire long before
// its first heartbeat — the cell requeued forever.
func TestCoordinatorRefusesSubMillisecondLease(t *testing.T) {
	for _, ttl := range []time.Duration{time.Nanosecond, 500 * time.Microsecond, time.Millisecond - 1} {
		coord, err := NewCoordinator(CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:0", LeaseTTL: ttl})
		if err == nil {
			coord.Close()
			t.Errorf("LeaseTTL %v accepted", ttl)
		} else if !strings.Contains(err.Error(), "under 1ms") {
			t.Errorf("LeaseTTL %v: %v, want a refusal naming the 1ms floor", ttl, err)
		}
	}
	coord, err := NewCoordinator(CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:0", LeaseTTL: time.Millisecond})
	if err != nil {
		t.Fatalf("LeaseTTL 1ms refused: %v", err)
	}
	coord.Close()
}

// TestLeaseExpiryGoneAndIdempotentResult drives the protocol edge the
// fault-injection path depends on, without timing races: an expired lease
// requeues to the next asker, the evicted worker's events answer 410 Gone,
// and — because cells are deterministic — a late result from the evicted
// worker is accepted, with the duplicate acknowledged idempotently.
func TestLeaseExpiryGoneAndIdempotentResult(t *testing.T) {
	st := &study.Study{
		Name: "fleet-gone", Apps: []string{"TVAnts"}, Seeds: []int64{1},
		Duration: study.Duration(15 * time.Second), PeerFactor: 0.05,
	}
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", LeaseTTL: time.Hour, Log: t.Logf})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	addr := coord.Addr()

	// Request bodies go through the strict reader every file codec uses:
	// an unknown field and a second object are both refused, and neither
	// registers a worker or touches a lease.
	for _, body := range []string{`{"worker":"w","bogus":1}`, `{"worker":"w"}{"worker":"x"}`} {
		if resp, msg := postRaw(t, addr, "lease", []byte(body)); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("lease with body %s answered %s (%s), want 400", body, resp.Status, msg)
		}
	}

	repA := leaseAs(t, addr, "wA")
	if repA.Status != StatusLease || repA.Index != 0 {
		t.Fatalf("wA lease: %+v", repA)
	}
	if resp, body := postJSON(t, addr, "event", eventPost{Worker: "wA", Index: 0, Kind: "start"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("wA start while leased: %s: %s", resp.Status, body)
	}

	// Expire wA's lease by hand (same package), then hand the cell to wB.
	coord.mu.Lock()
	coord.cells[0].deadline = time.Now().Add(-time.Second)
	coord.mu.Unlock()
	if repB := leaseAs(t, addr, "wB"); repB.Status != StatusLease || repB.Index != 0 {
		t.Fatalf("wB did not inherit the expired cell: %+v", repB)
	}

	if resp, _ := postJSON(t, addr, "event", eventPost{Worker: "wA", Index: 0, Kind: "renew"}); resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted worker's event answered %s, want 410 Gone", resp.Status)
	}

	// wA finished the cell anyway; its result is the same bytes wB's would
	// be, so the coordinator takes it.
	sum, err := coord.grid.RunCell(context.Background(), 0, nil)
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	resp, body := postJSON(t, addr, "result", resultPost{Worker: "wA", Index: 0, Digest: repA.Digest, Summary: &sum})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late result rejected: %s: %s", resp.Status, body)
	}
	// This result completes the 1-cell grid, and the acknowledgement says
	// so — wA need not (and must not have to) lease again to learn it.
	var ack okReply
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.OK || !ack.Done {
		t.Fatalf("grid-completing result acknowledged %+v, want ok+done", ack)
	}
	// wB's duplicate delivery of the now-done cell is acknowledged, also
	// with the completion flag.
	resp, body = postJSON(t, addr, "result", resultPost{Worker: "wB", Index: 0, Digest: repA.Digest, Summary: &sum})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate result not idempotent: %s: %s", resp.Status, body)
	}
	ack = okReply{}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.OK || !ack.Done {
		t.Fatalf("duplicate result on a complete grid acknowledged %+v, want ok+done", ack)
	}
	if got := coord.Remaining(); got != 0 {
		t.Fatalf("%d cells remain after result (+duplicate), want 0", got)
	}
	if rep := leaseAs(t, addr, "wC"); rep.Status != StatusDone {
		t.Fatalf("post-completion lease answered %+v, want done", rep)
	}
	if _, err := coord.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestHandlersRefuseMalformedPosts: a post the protocol does not allow is a
// 400 (an event on a cell the worker does not hold, a 410), and none of them
// touches a lease or a cell.
func TestHandlersRefuseMalformedPosts(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:0", LeaseTTL: time.Hour})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	addr := coord.Addr()
	rep := leaseAs(t, addr, "w")
	sum := experiment.Summary{}
	for _, tc := range []struct {
		path string
		body any
		want int
	}{
		{"lease", leaseRequest{}, http.StatusBadRequest},
		{"event", map[string]any{"worker": "w", "bogus": 1}, http.StatusBadRequest},
		{"event", eventPost{Worker: "w", Index: 99, Kind: eventRenew}, http.StatusGone},
		{"event", eventPost{Worker: "w", Index: -1, Kind: eventRenew}, http.StatusGone},
		{"event", eventPost{Worker: "w", Index: rep.Index, Kind: eventSample}, http.StatusBadRequest},
		{"event", eventPost{Worker: "w", Index: rep.Index, Kind: "bogus"}, http.StatusBadRequest},
		{"result", map[string]any{"worker": "w", "bogus": 1}, http.StatusBadRequest},
		{"result", resultPost{Worker: "w", Index: 99, Digest: rep.Digest, Summary: &sum}, http.StatusBadRequest},
		{"result", resultPost{Worker: "w", Index: -1, Digest: rep.Digest, Summary: &sum}, http.StatusBadRequest},
		{"result", resultPost{Worker: "w", Index: rep.Index, Digest: "beef", Summary: &sum}, http.StatusBadRequest},
		{"result", resultPost{Worker: "w", Index: rep.Index, Digest: rep.Digest}, http.StatusBadRequest},
	} {
		if resp, body := postJSON(t, addr, tc.path, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s %+v answered %s (%s), want %d", tc.path, tc.body, resp.Status, body, tc.want)
		}
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if cs := coord.cells[rep.Index]; cs.state != stateLeased || cs.worker != "w" || coord.remaining != 4 {
		t.Errorf("the refused posts moved cell %d to %+v, %d cells remaining", rep.Index, cs, coord.remaining)
	}
}

// TestNewCoordinatorRefuses: a study with no JSON form, one that does not
// resolve, and an address that cannot be bound each fail the constructor.
func TestNewCoordinatorRefuses(t *testing.T) {
	nan := fleetStudy()
	nan.PeerFactor = math.NaN()
	unknown := fleetStudy()
	unknown.Apps = []string{"Nope"}
	for _, tc := range []struct {
		cfg  CoordinatorConfig
		want string
	}{
		{CoordinatorConfig{Study: nan, Addr: "127.0.0.1:0"}, "unsupported value: NaN"},
		{CoordinatorConfig{Study: unknown, Addr: "127.0.0.1:0"}, "Nope"},
		{CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:-1"}, "fleet: listen tcp"},
	} {
		if coord, err := NewCoordinator(tc.cfg); err == nil {
			coord.Close()
			t.Errorf("NewCoordinator(%+v) succeeded", tc.cfg)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewCoordinator: %v, want an error containing %q", err, tc.want)
		}
	}
}

// TestWaitCancelledReturnsThePartialGrid: Wait's context ending returns the
// cells done so far, as a cancelled study.Run does, with the context's error.
func TestWaitCancelledReturnsThePartialGrid(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:0", LeaseTTL: time.Hour})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	rep := leaseAs(t, coord.Addr(), "w")
	sum, err := coord.grid.RunCell(context.Background(), rep.Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, coord.Addr(), "result", resultPost{Worker: "w", Index: rep.Index, Digest: rep.Digest, Summary: &sum}); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := coord.Wait(ctx)
	if !errors.Is(err, context.Canceled) || res == nil || len(res.Cells) != 4 {
		t.Fatalf("cancelled Wait = %+v, %v; want the 4-cell grid and context.Canceled", res, err)
	}
	for i, c := range res.Cells {
		if c.Done != (i == rep.Index) || c.Done && !reflect.DeepEqual(c.Summary, sum) {
			t.Errorf("cell %d: done %v, want only cell %d done with its summary", i, c.Done, rep.Index)
		}
	}
}

// TestWorkerRedialsOnTrailingReplyBytes: a reply followed by a second value
// is undecodable like any other — a redial, never a half-trusted answer.
func TestWorkerRedialsOnTrailingReplyBytes(t *testing.T) {
	for body, wantRedial := range map[string]bool{
		`{"status":"done"}`:                    false,
		`{"status":"done"}{"status":"lease"}`:  true,
		`{"status":"done","surprise":"field"}`: true,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, body)
		}))
		w := &worker{base: srv.URL, client: srv.Client()}
		var rep leaseReply
		err := w.callOnce(context.Background(), http.MethodPost, "lease", []byte(`{}`), &rep)
		srv.Close()
		var redial *dialError
		if errors.As(err, &redial) != wantRedial || (err == nil) == wantRedial {
			t.Errorf("reply %s: error %v, want a redial: %v", body, err, wantRedial)
		}
	}
}

// TestFleetCellErrorFailsStudy: a cell error reported by a worker fails the
// whole study — Wait returns it and later lease requests disband workers —
// mirroring a local study.Run's first-error semantics.
func TestFleetCellErrorFailsStudy(t *testing.T) {
	st := fleetStudy()
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", LeaseTTL: time.Hour, Log: t.Logf})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	addr := coord.Addr()

	rep := leaseAs(t, addr, "wA")
	if rep.Status != StatusLease {
		t.Fatalf("lease: %+v", rep)
	}
	if resp, body := postJSON(t, addr, "result", resultPost{Worker: "wA", Index: rep.Index, Digest: rep.Digest, Error: "disk on fire"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("error result: %s: %s", resp.Status, body)
	}
	if _, err := coord.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("Wait after cell error: %v", err)
	}
	if rep := leaseAs(t, addr, "wB"); rep.Status != StatusFailed || !strings.Contains(rep.Error, "disk on fire") {
		t.Fatalf("lease after failure answered %+v, want failed", rep)
	}
}

// TestFleetCellErrorMatchesLocalRun: the same failing study — an arrivals
// window over an empty deferred pool, which only fails at run time — fails
// with the same study error run locally and through a coordinator with one
// worker, and observers see the same OnRunDone error under both executors:
// the cell is labelled once, where the study error is formed.
func TestFleetCellErrorMatchesLocalRun(t *testing.T) {
	st := doomedStudy(1, 2)
	localObs := newObsRec()
	_, localErr := study.Run(context.Background(), st, study.WithWorkers(1), study.WithObserver(localObs))
	if localErr == nil {
		t.Fatal("doomed study succeeded locally")
	}

	fleetObs := newObsRec()
	coord, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", Observers: []study.Observer{fleetObs}, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	_, werrs, fleetErr := runFleet(ctx, coord, WorkerConfig{Name: "w1", Workers: 1, Log: t.Logf})
	werr := werrs[0]
	if fleetErr == nil || fleetErr.Error() != localErr.Error() {
		t.Errorf("fleet study error differs from the local one:\nfleet %v\nlocal %v", fleetErr, localErr)
	}
	if werr == nil || werr.Error() != localErr.Error() {
		t.Errorf("worker exit error differs from the local study error:\nworker %v\nlocal  %v", werr, localErr)
	}
	local, fleet := localObs.errs[0], fleetObs.errs[0]
	if local == nil || fleet == nil || local.Error() != fleet.Error() {
		t.Errorf("OnRunDone error differs between executors:\nfleet %v\nlocal %v", fleet, local)
	}
}

// TestFleetFailsANaNSummary: a summary holding NaN has no JSON. The worker
// that computed it posts its cell failed instead, so the study fails.
func TestFleetFailsANaNSummary(t *testing.T) {
	testNoJSONFailsTheCell(t, func(sum *experiment.Summary, _ func(experiment.SeriesSample)) {
		sum.MeanContinuity = math.NaN()
	})
}

// TestFleetFailsANaNSample: a sample holding NaN has no JSON either. The
// worker's sample path ends the attempt and posts its cell failed.
func TestFleetFailsANaNSample(t *testing.T) {
	testNoJSONFailsTheCell(t, func(_ *experiment.Summary, sample func(experiment.SeriesSample)) {
		sample(experiment.SeriesSample{T: time.Second, Continuity: math.NaN()})
	})
}

// testNoJSONFailsTheCell runs the four-cell study on two workers, spoiling
// cell 2's summary or sample once it has computed. Within 5 s Wait must
// fail naming that cell, the coordinator must answer later leases with the
// failure, and the worker that ran the cell must return Wait's error.
func testNoJSONFailsTheCell(t *testing.T, spoil func(*experiment.Summary, func(experiment.SeriesSample))) {
	st := fleetStudy()
	infos, err := st.RunInfos()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", Log: t.Logf})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	const bad = 2
	var spoiledBy atomic.Int32 // 1 + the index of the worker that spoiled the cell
	cfgs := make([]WorkerConfig, 2)
	for i := range cfgs {
		cfgs[i] = WorkerConfig{Name: fmt.Sprintf("w%d", i+1), Workers: 1, Log: t.Logf,
			beforeResult: func(index int, sum *experiment.Summary, sample func(experiment.SeriesSample)) error {
				if index == bad {
					spoiledBy.Store(int32(i + 1))
					spoil(sum, sample)
				}
				return nil
			}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, werrs, waitErr := runFleet(ctx, coord, cfgs...)
	prefix := fmt.Sprintf("study %s: %s: ", st.Name, infos[bad].Label())
	if waitErr == nil || !strings.HasPrefix(waitErr.Error(), prefix) || !strings.HasSuffix(waitErr.Error(), "unsupported value: NaN") {
		t.Fatalf("Wait returned %v, want a study error starting %q and naming the NaN", waitErr, prefix)
	}
	// The coordinator heard the failure, not only the worker: a worker
	// joining now is told the study failed, and returns the same error.
	if err := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w3"}); err == nil || err.Error() != waitErr.Error() {
		t.Errorf("a worker joining the failed study returned %v, want Wait's %v", err, waitErr)
	}
	if i := spoiledBy.Load(); i == 0 {
		t.Fatal("no worker ran the spoiled cell")
	} else if werr := werrs[i-1]; werr == nil || werr.Error() != waitErr.Error() {
		t.Errorf("worker w%d returned %v, want Wait's %v", i, werr, waitErr)
	}
}

// TestWorkerAbandonsALostLease: an event answered 410 ends the attempt
// unreported, and the slot leases again. Here the cell's lease passes to
// another worker, which delivers the same summary, between the cell's
// computing and its last sample; the fleet still finishes the grid, and its
// table is the serial run's.
func TestWorkerAbandonsALostLease(t *testing.T) {
	st := fleetStudy()
	serial, err := study.Run(context.Background(), st)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", LeaseTTL: time.Hour, Log: t.Logf})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	var lines []string // one slot, so one goroutine writes the log at a time
	cfg := WorkerConfig{Name: "w1", Workers: 1,
		Log: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
		beforeResult: func(index int, sum *experiment.Summary, sample func(experiment.SeriesSample)) error {
			if index != 1 {
				return nil
			}
			coord.mu.Lock()
			coord.cells[1].deadline = time.Now().Add(-time.Second)
			coord.mu.Unlock()
			rep := leaseAs(t, coord.Addr(), "thief")
			if rep.Status != StatusLease || rep.Index != 1 {
				t.Errorf("thief leased %+v, want cell 1", rep)
			}
			if resp, body := postJSON(t, coord.Addr(), "result", resultPost{Worker: "thief", Index: 1, Digest: rep.Digest, Summary: sum}); resp.StatusCode != http.StatusOK {
				t.Errorf("thief's result: %s: %s", resp.Status, body)
			}
			sample(experiment.SeriesSample{})
			return nil
		}}
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	res, _, err := runFleet(ctx, coord, cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if got, want := renderTable(t, res), renderTable(t, serial); got != want {
		t.Fatalf("fleet table differs from serial run:\n%s\nvs\n%s", got, want)
	}
	if !slices.Contains(lines, "fleet: w1 lost the lease on cell 1; abandoning") {
		t.Errorf("worker log %q does not report the lost lease", lines)
	}
}

// TestWorkerHeartbeatsAtTheCoordinatorsTTL: a joining worker sizes its
// heartbeat from the lease TTL the coordinator states, and from
// DefaultLeaseTTL when the reply states none.
func TestWorkerHeartbeatsAtTheCoordinatorsTTL(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Study: fleetStudy(), Addr: "127.0.0.1:0", LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	studyJSON, digest, err := fleetStudy().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(studyReply{Study: studyJSON, Digest: digest})
	}))
	defer silent.Close()
	for base, want := range map[string]time.Duration{
		"http://" + coord.Addr() + "/fleet/v1": 2 * time.Second,
		silent.URL:                             DefaultLeaseTTL,
	} {
		w := &worker{base: base, client: silent.Client(), log: t.Logf}
		if err := w.fetchStudy(context.Background()); err != nil || w.ttl != want {
			t.Errorf("%s: ttl %v (%v), want %v", base, w.ttl, err, want)
		}
	}
}

// TestWorkerWaitsAsTold: a worker told to wait polls again after the
// stated delay, or after waitRetry when the reply states none.
func TestWorkerWaitsAsTold(t *testing.T) {
	studyJSON, digest, err := fleetStudy().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for wait, least := range map[string]time.Duration{`{"status":"wait","retry_ms":1}`: 0, `{"status":"wait"}`: waitRetry} {
		var leases int
		mux := http.NewServeMux()
		mux.HandleFunc("GET /fleet/v1/study", func(w http.ResponseWriter, _ *http.Request) {
			_ = json.NewEncoder(w).Encode(studyReply{Study: studyJSON, Digest: digest, LeaseTTLMs: 1000})
		})
		mux.HandleFunc("POST /fleet/v1/lease", func(w http.ResponseWriter, _ *http.Request) {
			if leases++; leases == 1 {
				_, _ = io.WriteString(w, wait)
				return
			}
			_, _ = io.WriteString(w, `{"status":"done"}`)
		})
		srv := httptest.NewServer(mux)
		start := time.Now()
		err := RunWorker(context.Background(), WorkerConfig{Addr: strings.TrimPrefix(srv.URL, "http://"), Name: "w", Workers: 1})
		d := time.Since(start)
		srv.Close()
		if err != nil || d < least || d > least+waitRetry/2 {
			t.Errorf("told %s: returned %v after %v, want nil after %v", wait, err, d, least)
		}
	}
}

// TestWorkerRefusesWhatItCannotJoin drives RunWorker against coordinators
// that answer wrongly, and against none. Each returns at once with its
// error; a reply worth a redial (5xx) is retried with backoff until the
// context ends.
func TestWorkerRefusesWhatItCannotJoin(t *testing.T) {
	studyJSON, digest, err := fleetStudy().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	good := studyReply{Study: studyJSON, Digest: digest, LeaseTTLMs: 1000}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	for _, tc := range []struct {
		name, addr string
		study      func(n int) (int, any) // the n-th GET study's status and reply
		lease      string
		want       string
	}{
		{name: "no address", want: "worker without a coordinator address"},
		{name: "bad address", addr: "bad%zz", want: "invalid URL escape"},
		{name: "nobody listening", addr: closed, want: context.DeadlineExceeded.Error()},
		{name: "study refused", study: func(int) (int, any) { return http.StatusNotFound, "no study" },
			want: "GET study: 404 Not Found"},
		{name: "study undecodable", study: func(int) (int, any) { return http.StatusOK, studyReply{Study: []byte("{}"), Digest: digest} },
			want: "study without a name"},
		{name: "digest mismatch", study: func(int) (int, any) { return http.StatusOK, studyReply{Study: studyJSON, Digest: "beef"} },
			want: "study digest mismatch"},
		{name: "unknown lease status", study: func(int) (int, any) { return http.StatusOK, good }, lease: `{"status":"bogus"}`,
			want: `unknown lease status "bogus"`},
		{name: "redial then done", study: func(n int) (int, any) {
			if n == 0 {
				return http.StatusServiceUnavailable, "restarting"
			}
			return http.StatusOK, good
		}, lease: `{"status":"done"}`},
		{name: "redial until cancelled", study: func(int) (int, any) { return http.StatusBadGateway, "down" },
			want: context.DeadlineExceeded.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := tc.addr
			if tc.study != nil {
				var gets int
				mux := http.NewServeMux()
				mux.HandleFunc("GET /fleet/v1/study", func(w http.ResponseWriter, _ *http.Request) {
					code, rep := tc.study(gets)
					gets++
					w.WriteHeader(code)
					_ = json.NewEncoder(w).Encode(rep)
				})
				mux.HandleFunc("POST /fleet/v1/lease", func(w http.ResponseWriter, r *http.Request) {
					if ct := r.Header.Get("Content-Type"); ct != "application/json" {
						http.Error(w, "body of type "+ct, http.StatusUnsupportedMediaType)
						return
					}
					_, _ = io.WriteString(w, tc.lease)
				})
				srv := httptest.NewServer(mux)
				defer srv.Close()
				addr = strings.TrimPrefix(srv.URL, "http://")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			err := RunWorker(ctx, WorkerConfig{Addr: addr, Name: "w", Workers: 1, Log: t.Logf})
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("RunWorker returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestFleetResume is the resume satellite: kill the coordinator with half
// the grid checkpointed, reopen the spool, and the restored cells must not
// recompute — the second phase runs exactly the missing cells and the final
// table is byte-identical to a serial run.
func TestFleetResume(t *testing.T) {
	st := fleetStudy()
	serial, err := study.Run(context.Background(), st)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}
	spoolDir := t.TempDir()

	// Phase 1: a serial worker reports two cells, then its process "dies"
	// (context cancelled); the coordinator goes down without completing.
	// Each coordinator logs what it restored, and a fresh spool nothing.
	var mu sync.Mutex
	var restored []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "restored") {
			mu.Lock()
			defer mu.Unlock()
			restored = append(restored, line)
		}
	}
	coord1, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir, LeaseTTL: time.Hour, Log: logf,
	})
	if err != nil {
		t.Fatalf("phase 1 NewCoordinator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	killed := errors.New("simulated kill")
	var phase1 int
	err = RunWorker(ctx, WorkerConfig{
		Addr: coord1.Addr(), Name: "w1", Workers: 1, Log: t.Logf,
		beforeResult: func(int, *experiment.Summary, func(experiment.SeriesSample)) error {
			if phase1 == 2 {
				return killed
			}
			phase1++
			return nil
		},
	})
	if err := coord1.Close(); err != nil {
		t.Fatalf("phase 1 Close: %v", err)
	}
	if !errors.Is(err, killed) {
		t.Fatalf("phase 1 worker exited with %v, want the simulated kill after 2 cells", err)
	}

	// The spool must pin its study: resuming with any knob changed fails.
	other := fleetStudy()
	other.Seeds = []int64{1, 2, 3, 4, 5}
	if _, err := NewCoordinator(CoordinatorConfig{Study: other, Addr: "127.0.0.1:0", SpoolDir: spoolDir}); err == nil ||
		!strings.Contains(err.Error(), "different study") {
		t.Fatalf("spool accepted a different study: %v", err)
	}

	// Phase 2: reopen. Restored cells fan in attributed to "spool"; the
	// fresh worker computes exactly the two missing cells.
	obs := newObsRec()
	coord2, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir, LeaseTTL: time.Hour,
		Observers: []study.Observer{obs}, Log: logf,
	})
	if err != nil {
		t.Fatalf("phase 2 NewCoordinator: %v", err)
	}
	if want := []string{"fleet: restored 2/4 cells from spool " + spoolDir}; !slices.Equal(restored, want) {
		t.Fatalf("restore log %q, want %q", restored, want)
	}
	defer coord2.Close()
	if got := obs.doneWorkers()["spool"]; got != 2 {
		t.Fatalf("%d cells restored from spool at construction, want 2", got)
	}
	if got := coord2.Remaining(); got != 2 {
		t.Fatalf("%d cells remain after resume, want 2", got)
	}
	// The addr file tracks the live coordinator for joining scripts.
	addrBytes, err := os.ReadFile(filepath.Join(spoolDir, "addr"))
	if err != nil || strings.TrimSpace(string(addrBytes)) != coord2.Addr() {
		t.Fatalf("addr file %q / %v, want %q", addrBytes, err, coord2.Addr())
	}

	var phase2 int
	res, _, err := runFleet(ctx, coord2, WorkerConfig{
		Name: "w2", Workers: 1, Log: t.Logf,
		beforeResult: func(int, *experiment.Summary, func(experiment.SeriesSample)) error {
			phase2++
			return nil
		},
	})
	if err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	if phase2 != 2 {
		t.Fatalf("phase 2 recomputed %d cells, want exactly the 2 missing", phase2)
	}
	if got, want := renderTable(t, res), renderTable(t, serial); got != want {
		t.Fatalf("resumed table differs from serial run:\n%s\nvs\n%s", got, want)
	}

	// A third open restores everything and completes without any worker.
	coord3, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir, Log: t.Logf})
	if err != nil {
		t.Fatalf("phase 3 NewCoordinator: %v", err)
	}
	defer coord3.Close()
	res3, err := coord3.Wait(context.Background())
	if err != nil {
		t.Fatalf("phase 3 Wait: %v", err)
	}
	if got, want := renderTable(t, res3), renderTable(t, serial); got != want {
		t.Fatal("fully-spooled table differs from serial run")
	}
}

// TestCheckpointFailureIsLogged: a cell the spool cannot record still
// completes the run in memory, and the coordinator says the checkpoint
// failed. The spool's directories are the owner's to write.
func TestCheckpointFailureIsLogged(t *testing.T) {
	st := &study.Study{
		Name: "fleet-unspooled", Apps: []string{"TVAnts"}, Seeds: []int64{1},
		Duration: study.Duration(15 * time.Second), PeerFactor: 0.05,
	}
	spoolDir := t.TempDir()
	var mu sync.Mutex
	var failures []string
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir,
		Log: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "checkpoint") {
				mu.Lock()
				defer mu.Unlock()
				failures = append(failures, line)
			}
		}})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	cells := filepath.Join(spoolDir, "cells")
	if fi, err := os.Stat(cells); err != nil || fi.Mode().Perm()&0o700 != 0o700 {
		t.Fatalf("spool cells directory: %v, %v; want one its owner can write", fi.Mode(), err)
	}
	if err := os.Remove(cells); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cells, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	if _, _, err := runFleet(ctx, coord, WorkerConfig{Name: "w1", Workers: 1}); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "fleet: checkpoint for cell 0 failed: fleet: spool: ") {
		t.Errorf("checkpoint log %q, want one failure for cell 0", failures)
	}
}

// TestSpoolRejectsCorruptRecord: a tampered checkpoint must fail a resume
// loudly, never silently skew the assembled table.
func TestSpoolRejectsCorruptRecord(t *testing.T) {
	st := &study.Study{
		Name: "fleet-corrupt", Apps: []string{"TVAnts"}, Seeds: []int64{1},
		Duration: study.Duration(15 * time.Second), PeerFactor: 0.05,
	}
	spoolDir := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir, Log: t.Logf})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testBound)
	defer cancel()
	if _, _, err := runFleet(ctx, coord, WorkerConfig{Name: "w1", Workers: 1}); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	coord.Close()

	cells, err := os.ReadDir(filepath.Join(spoolDir, "cells"))
	if err != nil || len(cells) != 1 {
		t.Fatalf("spool holds %d cells (%v), want 1", len(cells), err)
	}
	path := filepath.Join(spoolDir, "cells", cells[0].Name())
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(rec, []byte(`"index": 0`), []byte(`"index": 7`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir}); err == nil ||
		!strings.Contains(err.Error(), "does not belong") {
		t.Fatalf("corrupt spool record accepted: %v", err)
	}

	// A record that is not JSON is named; so is a stray entry; and a spool
	// path that is a file cannot hold a spool.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir}); err == nil ||
		!strings.Contains(err.Error(), path) {
		t.Fatalf("undecodable spool record: %v, want an error naming %s", err, path)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(spoolDir, "cells", "stray"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir}); err == nil ||
		!strings.Contains(err.Error(), "unexpected entry stray") {
		t.Fatalf("stray spool entry: %v", err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", SpoolDir: filepath.Join(spoolDir, "study.json")}); err == nil ||
		!strings.Contains(err.Error(), "fleet: spool:") {
		t.Fatalf("a file as the spool: %v", err)
	}
}
