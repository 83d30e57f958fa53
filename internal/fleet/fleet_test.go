package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/scenario"
	"napawine/internal/study"
)

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
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
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

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = RunWorker(ctx, WorkerConfig{
				Addr: coord.Addr(), Name: fmt.Sprintf("w%d", i+1),
				Workers: 1, Log: t.Logf,
			})
		}(i)
	}
	res, err := coord.Wait(ctx)
	wg.Wait()
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w1", Workers: 1}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
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

	coord, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", LeaseTTL: 500 * time.Millisecond, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Worker 1 reports its first cell, then "dies" mid-second-cell: the
	// cell is computed but the kill lands before the result posts, so the
	// coordinator only ever learns about it by lease expiry.
	killed := errors.New("simulated kill")
	var w1cells int
	w1err := RunWorker(ctx, WorkerConfig{
		Addr: coord.Addr(), Name: "w1", Workers: 1, Log: t.Logf,
		beforeResult: func(int) error {
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

	if err := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w2", Workers: 1, Log: t.Logf}); err != nil {
		t.Fatalf("worker 2: %v", err)
	}
	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got, want := renderTable(t, res), renderTable(t, serial); got != want {
		t.Fatalf("post-requeue table differs from serial run:\n%s\nvs\n%s", got, want)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease as %s: %s: %s", worker, resp.Status, body)
	}
	var rep leaseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	werr := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w1", Workers: 1, Log: t.Logf})
	_, fleetErr := coord.Wait(ctx)
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
	coord1, err := NewCoordinator(CoordinatorConfig{
		Study: st, Addr: "127.0.0.1:0", SpoolDir: spoolDir, LeaseTTL: time.Hour, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("phase 1 NewCoordinator: %v", err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	var phase1 int
	_ = RunWorker(ctx1, WorkerConfig{
		Addr: coord1.Addr(), Name: "w1", Workers: 1, Log: t.Logf,
		onCellDone: func(int, error) {
			phase1++
			if phase1 >= 2 {
				cancel1()
			}
		},
	})
	cancel1()
	if err := coord1.Close(); err != nil {
		t.Fatalf("phase 1 Close: %v", err)
	}
	if phase1 != 2 {
		t.Fatalf("phase 1 completed %d cells, want 2", phase1)
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
		Observers: []study.Observer{obs}, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("phase 2 NewCoordinator: %v", err)
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

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var phase2 int
	if err := RunWorker(ctx, WorkerConfig{
		Addr: coord2.Addr(), Name: "w2", Workers: 1, Log: t.Logf,
		onCellDone: func(int, error) { phase2++ },
	}); err != nil {
		t.Fatalf("phase 2 worker: %v", err)
	}
	res, err := coord2.Wait(ctx)
	if err != nil {
		t.Fatalf("phase 2 Wait: %v", err)
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Name: "w1", Workers: 1}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
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
}
