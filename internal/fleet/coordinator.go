package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/strictjson"
	"napawine/internal/study"
)

// DefaultLeaseTTL is the lease window when CoordinatorConfig leaves it
// unset: generous enough that a worker heartbeating at TTL/3 survives a few
// dropped posts, short enough that a killed worker's cells requeue quickly.
const DefaultLeaseTTL = 30 * time.Second

// waitRetry is the poll delay suggested to workers when nothing is leasable
// right now (every cell leased or done, but the grid not yet complete).
const waitRetry = 500 * time.Millisecond

// waitGrace is how long after a wait reply its worker is expected to poll
// again: waitRetry plus a margin for the round trip.
const waitGrace = waitRetry + 250*time.Millisecond

// Cell lifecycle at the coordinator.
const (
	statePending = iota
	stateLeased
	stateDone
)

// cellState tracks one grid cell through the lease protocol.
type cellState struct {
	state    int
	worker   string    // lease owner (stateLeased) or computing worker (stateDone)
	deadline time.Time // lease expiry (stateLeased)
	sum      experiment.Summary
}

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Study is the grid to distribute.
	Study *study.Study
	// Addr is the listen address (host:port; port 0 picks a free one).
	Addr string
	// LeaseTTL is the lease window; 0 selects DefaultLeaseTTL, and a
	// positive one under 1ms is refused (workers are told it in whole
	// milliseconds). A cell whose lease is not renewed (by heartbeat, event
	// or result) within the window returns to the queue.
	LeaseTTL time.Duration
	// SpoolDir, when non-empty, checkpoints every completed cell there and
	// restores already-completed cells on start — the -resume directory.
	SpoolDir string
	// Observers receive the same callbacks a local study.Run would issue,
	// with RunInfo.Worker attributing each cell to the worker that
	// computed it ("spool" for restored cells). They are composed by
	// study.Fanout, the fan-out study.Run delivers through.
	Observers []study.Observer
	// Log, when non-nil, receives one line per fleet event (worker joins,
	// lease expiries, checkpoint restores). It must be safe for concurrent
	// use.
	Log func(format string, args ...any)
}

// Coordinator serves a study grid to fleet workers and fans their progress
// back into observers. Create with NewCoordinator, harvest with Wait, tear
// down with Close.
type Coordinator struct {
	st        *study.Study
	grid      *study.Grid
	studyJSON []byte
	digest    string
	digests   []string // per-index cell digests
	infos     []study.RunInfo
	ttl       time.Duration
	spool     *spool
	observer  study.Observer // the study.Fanout of CoordinatorConfig.Observers
	log       func(format string, args ...any)

	ln  net.Listener
	srv *http.Server
	wg  sync.WaitGroup

	mu        sync.Mutex
	cells     []cellState
	remaining int             // cells not yet done
	workers   map[string]bool // worker names seen, for join logging
	// waiting holds when each worker was last told to wait, until it is
	// told the study is over: Close answers those polls before it stops
	// listening. answered is signalled whenever an entry goes.
	waiting  map[string]time.Time
	answered chan struct{}
	failErr  error // first cell failure, by lowest grid index, labelled with its cell
	failIdx  int

	done   chan struct{} // closed when remaining hits 0
	failed chan struct{} // closed on the first cell failure
}

// NewCoordinator encodes, digests and resolves the study — once each —
// restores any spooled cells, binds the listener and starts serving leases.
// When a spool is configured the bound address is also written to
// SPOOL/addr so scripts can join workers to a port-0 coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Study == nil {
		return nil, fmt.Errorf("fleet: coordinator without a study")
	}
	if cfg.LeaseTTL > 0 && cfg.LeaseTTL < time.Millisecond {
		return nil, fmt.Errorf("fleet: lease TTL %v is under 1ms, the resolution workers are told it in", cfg.LeaseTTL)
	}
	studyJSON, digest, err := cfg.Study.Canonical()
	if err != nil {
		return nil, err
	}
	grid, err := cfg.Study.Resolve()
	if err != nil {
		return nil, err
	}
	infos, digests := grid.Infos(), grid.CellDigests(digest)
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Coordinator{
		st:        cfg.Study,
		grid:      grid,
		studyJSON: studyJSON,
		digest:    digest,
		digests:   digests,
		infos:     infos,
		ttl:       ttl,
		observer:  study.Fanout(cfg.Observers...),
		log:       cfg.Log,
		cells:     make([]cellState, len(infos)),
		remaining: len(infos),
		workers:   make(map[string]bool),
		waiting:   make(map[string]time.Time),
		answered:  make(chan struct{}, 1),
		failIdx:   -1,
		done:      make(chan struct{}),
		failed:    make(chan struct{}),
	}
	if c.log == nil {
		c.log = func(string, ...any) {}
	}

	if cfg.SpoolDir != "" {
		sp, err := openSpool(cfg.SpoolDir, c.studyJSON)
		if err != nil {
			return nil, err
		}
		c.spool = sp
		recs, err := sp.load(digests)
		if err != nil {
			return nil, err
		}
		for idx, rec := range recs {
			c.cells[idx] = cellState{state: stateDone, worker: rec.Worker, sum: rec.Summary}
			c.remaining--
			c.observer.OnRunDone(c.attributed(idx, "spool"), rec.Summary, nil)
		}
		if len(recs) > 0 {
			c.log("fleet: restored %d/%d cells from spool %s", len(recs), len(infos), cfg.SpoolDir)
		}
		if c.remaining == 0 {
			close(c.done)
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	c.ln = ln
	if c.spool != nil {
		if err := c.spool.writeAddr(ln.Addr().String()); err != nil {
			ln.Close()
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/v1/study", c.handleStudy)
	mux.HandleFunc("POST /fleet/v1/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/v1/event", c.handleEvent)
	mux.HandleFunc("POST /fleet/v1/result", c.handleResult)
	c.srv = &http.Server{Handler: mux}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.srv.Serve(ln)
	}()
	return c, nil
}

// Addr is the bound address, e.g. "127.0.0.1:43117" after ":0".
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Remaining reports how many cells are not yet completed.
func (c *Coordinator) Remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remaining
}

// Wait blocks until the grid completes, a cell fails, or ctx is done.
//
// The contract mirrors study.Run: a complete grid assembles and returns the
// full Result; a cell failure returns a nil Result with the first failing
// cell's error (in grid order); cancellation returns the partial Result —
// completed cells have Done set and well-formed summaries — alongside
// ctx.Err(). Workers still holding leases learn the outcome from their next
// lease request.
func (c *Coordinator) Wait(ctx context.Context) (*study.Result, error) {
	select {
	case <-c.done:
		return c.assemble()
	case <-c.failed:
		c.mu.Lock()
		err := c.failErr
		c.mu.Unlock()
		return nil, fmt.Errorf("study %s: %w", c.st.Name, err)
	case <-ctx.Done():
		res, aerr := c.assemble()
		if aerr != nil {
			return nil, aerr
		}
		return res, ctx.Err()
	}
}

// assemble builds the study Result from the completed cells.
func (c *Coordinator) assemble() (*study.Result, error) {
	c.mu.Lock()
	sums := make([]experiment.Summary, len(c.cells))
	done := make([]bool, len(c.cells))
	for i, cs := range c.cells {
		if cs.state == stateDone {
			sums[i], done[i] = cs.sum, true
		}
	}
	c.mu.Unlock()
	return c.grid.Result(sums, done)
}

// drainTimeout bounds how long Close waits for running handlers.
const drainTimeout = 5 * time.Second

// Close stops serving and joins the server goroutine. A study that is over
// first answers the workers still polling it (answerWaiters). The listener
// then closes; handlers already running get drainTimeout to finish, so the
// worker that just delivered the last result reads its acknowledgement
// instead of a reset connection (which it would redial for its whole
// budget). Connections still busy after that are cut.
func (c *Coordinator) Close() error {
	c.answerWaiters()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	if err != nil {
		err = c.srv.Close()
	}
	c.wg.Wait()
	return err
}

// answerWaiters returns once every worker told to wait has since been told
// the study is over, or once the last of them is overdue: at most waitGrace,
// and at once when the study is not over or nobody is waiting. A worker told
// to wait would otherwise poll a closed port and redial it for its whole
// budget.
func (c *Coordinator) answerWaiters() {
	for {
		c.mu.Lock()
		var last time.Time
		if c.remaining == 0 || c.failErr != nil {
			for _, at := range c.waiting {
				if at.After(last) {
					last = at
				}
			}
		}
		c.mu.Unlock()
		left := time.Until(last.Add(waitGrace))
		if left <= 0 {
			return
		}
		timer := time.NewTimer(left)
		select {
		case <-c.answered:
			timer.Stop()
		case <-timer.C:
			return
		}
	}
}

// answeredLocked records that worker has been told the study is over: it
// stops every slot it runs. Called with c.mu held.
func (c *Coordinator) answeredLocked(worker string) {
	if _, ok := c.waiting[worker]; !ok {
		return
	}
	delete(c.waiting, worker)
	select {
	case c.answered <- struct{}{}:
	default:
	}
}

// attributed returns cell idx's RunInfo with its execution attributed to
// worker.
func (c *Coordinator) attributed(idx int, worker string) study.RunInfo {
	info := c.infos[idx]
	info.Worker = worker
	return info
}

// reapLocked requeues every expired lease. Called with c.mu held, lazily
// from the lease path: expiry only matters when someone could pick the cell
// up again.
func (c *Coordinator) reapLocked(now time.Time) {
	for i := range c.cells {
		cs := &c.cells[i]
		if cs.state == stateLeased && now.After(cs.deadline) {
			c.log("fleet: lease on cell %d/%d (%s) from %s expired; requeued",
				i+1, len(c.cells), c.infos[i].Label(), cs.worker)
			*cs = cellState{state: statePending}
		}
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeInto parses one strict JSON request body.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := strictjson.Decode(r.Body, v); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleStudy(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, studyReply{Study: c.studyJSON, Digest: c.digest, LeaseTTLMs: c.ttl.Milliseconds()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "lease request without a worker name", http.StatusBadRequest)
		return
	}
	now := time.Now()
	c.mu.Lock()
	if !c.workers[req.Worker] {
		c.workers[req.Worker] = true
		c.log("fleet: worker %s joined (%s)", req.Worker, r.RemoteAddr)
	}
	if c.failErr != nil {
		rep := leaseReply{Status: StatusFailed, Error: c.failErr.Error()}
		c.answeredLocked(req.Worker)
		c.mu.Unlock()
		writeJSON(w, rep)
		return
	}
	if c.remaining == 0 {
		c.answeredLocked(req.Worker)
		c.mu.Unlock()
		writeJSON(w, leaseReply{Status: StatusDone})
		return
	}
	c.reapLocked(now)
	for i := range c.cells {
		if c.cells[i].state != statePending {
			continue
		}
		c.cells[i] = cellState{state: stateLeased, worker: req.Worker, deadline: now.Add(c.ttl)}
		rep := leaseReply{Status: StatusLease, Index: i, Digest: c.digests[i], TTLMs: c.ttl.Milliseconds()}
		c.mu.Unlock()
		writeJSON(w, rep)
		return
	}
	c.waiting[req.Worker] = now
	c.mu.Unlock()
	writeJSON(w, leaseReply{Status: StatusWait, RetryMs: waitRetry.Milliseconds()})
}

// holdsLease reports whether worker currently owns a live lease on cell
// idx, renewing it when so. Called with c.mu held.
func (c *Coordinator) holdsLeaseLocked(idx int, worker string, now time.Time) bool {
	if idx < 0 || idx >= len(c.cells) {
		return false
	}
	cs := &c.cells[idx]
	if cs.state != stateLeased || cs.worker != worker || now.After(cs.deadline) {
		return false
	}
	cs.deadline = now.Add(c.ttl)
	return true
}

func (c *Coordinator) handleEvent(w http.ResponseWriter, r *http.Request) {
	var ev eventPost
	if !decodeInto(w, r, &ev) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if !c.holdsLeaseLocked(ev.Index, ev.Worker, now) {
		c.mu.Unlock()
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	var fan func()
	switch ev.Kind {
	case eventStart:
		info := c.attributed(ev.Index, ev.Worker)
		fan = func() { c.observer.OnRunStart(info) }
	case eventSample:
		if ev.Sample == nil {
			c.mu.Unlock()
			http.Error(w, "sample event without a sample", http.StatusBadRequest)
			return
		}
		info := c.attributed(ev.Index, ev.Worker)
		s := *ev.Sample
		fan = func() { c.observer.OnSample(info, s) }
	case eventRenew:
		// The deadline extension above is the whole effect.
	default:
		c.mu.Unlock()
		http.Error(w, fmt.Sprintf("unknown event kind %q", ev.Kind), http.StatusBadRequest)
		return
	}
	c.mu.Unlock()
	if fan != nil {
		fan()
	}
	writeJSON(w, okReply{OK: true})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var res resultPost
	if !decodeInto(w, r, &res) {
		return
	}
	if res.Index < 0 || res.Index >= len(c.cells) {
		http.Error(w, "cell index out of range", http.StatusBadRequest)
		return
	}
	if res.Digest != c.digests[res.Index] {
		http.Error(w, "cell digest mismatch (different study?)", http.StatusBadRequest)
		return
	}
	if res.Error == "" && res.Summary == nil {
		http.Error(w, "result without a summary or error", http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	if c.cells[res.Index].state == stateDone {
		// A worker that lost its lease mid-post, or a duplicate delivery:
		// cells are deterministic, so the summary already recorded is the
		// same one. Acknowledge idempotently.
		complete := c.remaining == 0
		if complete {
			c.answeredLocked(res.Worker)
		}
		c.mu.Unlock()
		writeJSON(w, okReply{OK: true, Done: complete})
		return
	}
	if res.Error != "" {
		// The worker posts the cell's own error; the study error names the
		// cell here, once, as study.Run does, and observers get it bare.
		info := c.attributed(res.Index, res.Worker)
		err := errors.New(res.Error)
		if c.failIdx == -1 || res.Index < c.failIdx {
			c.failIdx, c.failErr = res.Index, fmt.Errorf("%s: %w", info.Label(), err)
		}
		c.cells[res.Index] = cellState{state: statePending}
		first := c.failIdx == res.Index
		c.answeredLocked(res.Worker) // it stops on its own failed cell
		c.mu.Unlock()
		c.log("fleet: cell %d/%d (%s) failed on %s: %s", res.Index+1, len(c.cells), info.Label(), res.Worker, res.Error)
		c.observer.OnRunDone(info, experiment.Summary{}, err)
		if first {
			// Close exactly once: the lowest-index race is settled under
			// the lock; only the holder of failIdx at unlock closes.
			select {
			case <-c.failed:
			default:
				close(c.failed)
			}
		}
		writeJSON(w, okReply{OK: true})
		return
	}
	c.cells[res.Index] = cellState{state: stateDone, worker: res.Worker, sum: *res.Summary}
	c.remaining--
	last := c.remaining == 0
	if last {
		c.answeredLocked(res.Worker)
	}
	info := c.attributed(res.Index, res.Worker)
	c.mu.Unlock()

	if c.spool != nil {
		rec := cellRecord{
			Digest: res.Digest, Index: res.Index, Label: info.Label(),
			Worker: res.Worker, Summary: *res.Summary,
		}
		if err := c.spool.put(rec); err != nil {
			// The run can still finish in memory; the record is just not
			// resumable. Say so loudly.
			c.log("fleet: checkpoint for cell %d failed: %v", res.Index, err)
		}
	}
	c.observer.OnRunDone(info, *res.Summary, nil)
	if last {
		close(c.done)
	}
	writeJSON(w, okReply{OK: true, Done: last})
}
