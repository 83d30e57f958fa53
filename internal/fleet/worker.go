package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/strictjson"
	"napawine/internal/study"
)

// dialBudget is how long a worker keeps retrying a failing coordinator call
// before giving up: long enough to ride out a coordinator restart, short
// enough that a dead coordinator doesn't strand workers forever.
const dialBudget = 60 * time.Second

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// Name is the worker's stable identity for leases and attribution;
	// empty selects "<hostname>-<pid>".
	Name string
	// Workers is the concurrent-cell budget (the -workers flag); 0 runs
	// GOMAXPROCS cells at a time.
	Workers int
	// ExplicitWorkers is read by nothing. It stays only because the
	// benchmark module (bench/child.go) sets it; the benchmark change in
	// ROADMAP item 1(a) removes it.
	ExplicitWorkers bool
	// Log, when non-nil, receives one line per worker event. It must be
	// safe for concurrent use.
	Log func(format string, args ...any)

	// beforeResult, a test hook, runs after a cell computes but before its
	// result posts. It sees the summary about to post and the attempt's
	// sample path; returning an error abandons the worker there, simulating
	// death mid-cell without killing the test process.
	beforeResult func(index int, sum *experiment.Summary, sample func(experiment.SeriesSample)) error
}

// worker is one joined worker's client state.
type worker struct {
	cfg    WorkerConfig
	base   string // http://ADDR/fleet/v1
	client *http.Client
	st     *study.Study
	grid   *study.Grid // st resolved once, at join
	ttl    time.Duration
	log    func(format string, args ...any)
}

// RunWorker joins the coordinator at cfg.Addr and executes leased cells
// until the grid completes ("done"), a cell fails (one of its own, once the
// coordinator has acknowledged the failure, or anywhere in the fleet,
// "failed"; either is returned as the study error), ctx is cancelled, or the
// coordinator stays unreachable past the redial budget. Every coordinator
// call retries with backoff, so dropped connections and coordinator
// restarts cost a redial, not a cell.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Addr == "" {
		return fmt.Errorf("fleet: worker without a coordinator address")
	}
	if cfg.Name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &worker{
		cfg:  cfg,
		base: "http://" + cfg.Addr + "/fleet/v1",
		// A transport of its own, whose idle connections close when the
		// worker returns: a dial that a cancelled slot started would
		// otherwise sit at the coordinator as a connection that never sends
		// a request, which holds up its Close for seconds.
		client: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
		log:    cfg.Log,
	}
	defer w.client.CloseIdleConnections()
	if w.log == nil {
		w.log = func(string, ...any) {}
	}

	if err := w.fetchStudy(ctx); err != nil {
		return err
	}
	budget := cfg.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	w.log("fleet: %s joined %s: study %s (%d cells), running %d cell(s) at a time",
		cfg.Name, cfg.Addr, w.st.Name, w.st.Runs(), budget)

	// Each slot loops lease → run → result until the coordinator disbands
	// it. The first slot to stop decides the worker's outcome and cancels
	// the other slots: nil once it has learnt the grid is done, or its error
	// (a failed cell or an exhausted redial budget). Either way the study
	// is over for this worker, and the coordinator may already have exited.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for range budget {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := w.leaseLoop(ctx)
			once.Do(func() {
				first = err
				cancel()
			})
		}()
	}
	wg.Wait()
	return first
}

// fetchStudy downloads and verifies the coordinator's study, and resolves
// its grid for every cell this worker will lease.
func (w *worker) fetchStudy(ctx context.Context) error {
	var rep studyReply
	if err := w.call(ctx, http.MethodGet, "study", nil, &rep); err != nil {
		return err
	}
	st, err := study.DecodeBytes(rep.Study)
	if err != nil {
		return err
	}
	digest, err := st.Digest()
	if err != nil {
		return err
	}
	if digest != rep.Digest {
		return fmt.Errorf("fleet: study digest mismatch: coordinator says %s, decoded study digests %s", rep.Digest, digest)
	}
	if w.grid, err = st.Resolve(); err != nil {
		return err
	}
	w.st = st
	w.ttl = time.Duration(rep.LeaseTTLMs) * time.Millisecond
	if w.ttl <= 0 {
		w.ttl = DefaultLeaseTTL
	}
	return nil
}

// leaseLoop drives one execution slot.
func (w *worker) leaseLoop(ctx context.Context) error {
	for {
		var rep leaseReply
		if err := w.call(ctx, http.MethodPost, "lease", leaseRequest{Worker: w.cfg.Name}, &rep); err != nil {
			return err
		}
		switch rep.Status {
		case StatusDone:
			return nil
		case StatusFailed:
			return fmt.Errorf("study %s: %s", w.st.Name, rep.Error)
		case StatusWait:
			retry := time.Duration(rep.RetryMs) * time.Millisecond
			if retry <= 0 {
				retry = waitRetry
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
		case StatusLease:
			gridDone, err := w.runCell(ctx, rep.Index, rep.Digest)
			if err != nil {
				return err
			}
			if gridDone {
				// Our result completed the grid: exit without another
				// lease request, which could only race the coordinator's
				// shutdown.
				return nil
			}
		default:
			return fmt.Errorf("fleet: unknown lease status %q", rep.Status)
		}
	}
}

// errLeaseLost ends an attempt whose event the coordinator answered 410:
// another worker owns the cell now, and determinism makes its duplicate
// work harmless.
var errLeaseLost = errors.New("lease lost")

// runCell executes one leased cell: heartbeats keep the lease alive, sample
// events stream the cell's time series, and the finished summary posts
// back. The attempt ends in one of the four ways the package doc lists
// (lease lost, coordinator unreachable, cell failed, success); the first
// event that fails cancels the cell with its error as the cause, which
// tells the first three apart. The returned bool reports whether this
// result completed the grid.
func (w *worker) runCell(ctx context.Context, index int, digest string) (bool, error) {
	cellCtx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	post := func(kind string, sample *experiment.SeriesSample) {
		if err := w.call(cellCtx, http.MethodPost, "event",
			eventPost{Worker: w.cfg.Name, Index: index, Kind: kind, Sample: sample}, &okReply{}); err != nil {
			stop(err)
		}
	}
	onSample := func(s experiment.SeriesSample) {
		if cellCtx.Err() == nil {
			post(eventSample, &s)
		}
	}
	post(eventStart, nil)

	// Heartbeat at TTL/3: two beats can drop before the lease expires.
	hbCtx, hbStop := context.WithCancel(cellCtx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(w.ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				post(eventRenew, nil)
			}
		}
	}()
	sum, runErr := w.grid.RunCell(cellCtx, index, onSample)
	hbStop()
	<-hbDone

	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	if w.cfg.beforeResult != nil {
		if err := w.cfg.beforeResult(index, &sum, onSample); err != nil {
			return false, err
		}
	}
	switch cause := context.Cause(cellCtx); {
	case cause == errLeaseLost:
		w.log("fleet: %s lost the lease on cell %d; abandoning", w.cfg.Name, index)
		return false, nil
	case hasNoJSON(cause):
		runErr = cause
	case cause != nil:
		return false, cause
	}

	// Post the result on the parent ctx: a computed result is worth
	// delivering even if the lease lapsed, and the coordinator acknowledges
	// duplicates idempotently. A summary with no JSON fails the cell.
	res := resultPost{Worker: w.cfg.Name, Index: index, Digest: digest, Summary: &sum}
	var ack okReply
	var err error
	if runErr == nil {
		if err = w.call(ctx, http.MethodPost, "result", res, &ack); hasNoJSON(err) {
			runErr = err
		}
	}
	if runErr != nil {
		res.Summary, res.Error = nil, runErr.Error()
		err = w.call(ctx, http.MethodPost, "result", res, &ack)
	}
	if err != nil {
		return false, err
	}
	if runErr != nil {
		// The study is over. Stop with the error Coordinator.Wait returns
		// rather than lease again from a coordinator that may have exited.
		return false, fmt.Errorf("study %s: %s: %w", w.st.Name, w.grid.Infos()[index].Label(), runErr)
	}
	return ack.Done, nil
}

// hasNoJSON reports whether err is call's refusal of a body json.Marshal
// cannot encode: a summary or sample holding ±Inf or NaN.
func hasNoJSON(err error) bool {
	var bad *json.UnsupportedValueError
	return errors.As(err, &bad)
}

// call performs one coordinator round trip with redial-on-failure: any
// transport error or 5xx retries with growing backoff until dialBudget of
// continuous failure passes (a coordinator restart costs a redial, never a
// worker). 4xx replies — protocol errors and 410 lease losses
// (errLeaseLost) — do not retry; they mean the coordinator heard us and
// said no.
func (w *worker) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("fleet: %s %s: %w", method, path, err)
		}
	}
	backoff := 100 * time.Millisecond
	deadline := time.Now().Add(dialBudget)
	for {
		err := w.callOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if _, retriable := err.(*dialError); !retriable {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: coordinator at %s unreachable for %s: %w", w.cfg.Addr, dialBudget, err)
		}
		w.log("fleet: %s: %s %s failed (%v); redialing in %s", w.cfg.Name, method, path, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// dialError wraps failures worth redialing: transport errors and 5xx.
type dialError struct{ err error }

func (e *dialError) Error() string { return e.err.Error() }

func (w *worker) callOnce(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.base+"/"+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return &dialError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		err := fmt.Errorf("fleet: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusGone {
			return errLeaseLost
		}
		if resp.StatusCode >= 500 {
			return &dialError{err}
		}
		return err
	}
	if err := strictjson.Decode(resp.Body, out); err != nil {
		return &dialError{fmt.Errorf("fleet: %s %s: decode reply: %w", method, path, err)}
	}
	return nil
}
