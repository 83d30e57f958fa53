// Package fleet distributes a study grid across machines: one coordinator
// enumerates the grid and hands out cell leases over a stdlib-only
// HTTP/JSON protocol; any number of workers dial in, resolve the grid once
// (study.Grid), lease cells, execute them locally through Grid.RunCell —
// the code study.Run executes its cells through — and stream progress plus
// time-series buckets back for live fan-in to the coordinator's observers
// (the dashboard and -svg-out artifacts work unchanged over a distributed
// run).
//
// The design leans on two properties the study layer already guarantees:
// every cell is deterministic (the same cell computes the same summary on
// any machine, so duplicated work after a lost lease is harmless), and
// every cell is JSON-addressable (a canonical digest keys its checkpoint,
// so a restarted coordinator resumes bit-for-bit instead of recomputing).
// Fault tolerance is lease-based, in the spirit of minimega's
// redial-on-disconnect clients: a worker renews its leases by heartbeat and
// by the events it streams; a worker that dies or wedges simply stops
// renewing, the lease expires, and the cell returns to the queue for the
// next lease request. Workers retry every call with backoff, so a dropped
// connection (or a coordinator briefly restarting) costs a redial, never a
// cell.
//
// Protocol (all JSON over HTTP, rooted at /fleet/v1/):
//
//	GET  study   → the study file (study codec), its digest, the lease TTL
//	POST lease   → {status:"lease", index, digest, ttl_ms}
//	               | {status:"wait", retry_ms}   (nothing leasable right now)
//	               | {status:"done"}             (grid complete; disband)
//	               | {status:"failed", error}    (a cell failed; disband)
//	POST event   → worker → coordinator progress on a leased cell:
//	               kind "start" | "sample" (carries one SeriesSample) |
//	               "renew" (heartbeat). Every event renews the lease.
//	               410 Gone when the lease is no longer the worker's.
//	POST result  → the finished cell's summary (or its error, which fails
//	               the whole study like a local cell error would). The
//	               acknowledgement reports whether the grid is now complete,
//	               so the worker that lands the last cell disbands without
//	               another lease round trip (the coordinator may already be
//	               rendering and gone by then).
package fleet

import (
	"errors"
	"fmt"

	"napawine/internal/experiment"
)

// ErrOversubscribed marks a WorkerBudget rejection, so the CLI can present
// it as a usage error (exit 2) rather than a runtime failure.
var ErrOversubscribed = errors.New("oversubscribed")

// Lease-reply statuses.
const (
	StatusLease  = "lease"
	StatusWait   = "wait"
	StatusDone   = "done"
	StatusFailed = "failed"
)

// studyReply answers GET study: the canonical study encoding (the same
// bytes the coordinator digested), its digest, and the coordinator's lease
// TTL so workers can size their heartbeats.
type studyReply struct {
	Study      []byte `json:"study"`
	Digest     string `json:"digest"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
}

// leaseRequest asks for one cell; Worker is the caller's stable identity
// (attribution and lease ownership both key on it).
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseReply grants a cell, asks the worker to wait, or disbands it.
type leaseReply struct {
	Status string `json:"status"`
	// Index and Digest identify the leased cell (status "lease").
	Index  int    `json:"index,omitempty"`
	Digest string `json:"digest,omitempty"`
	TTLMs  int64  `json:"ttl_ms,omitempty"`
	// RetryMs is the suggested poll delay (status "wait").
	RetryMs int64 `json:"retry_ms,omitempty"`
	// Error carries the failed study's first cell error (status "failed").
	Error string `json:"error,omitempty"`
}

// Event kinds a worker posts about a leased cell.
const (
	eventStart  = "start"
	eventSample = "sample"
	eventRenew  = "renew"
)

// eventPost is one progress event on a leased cell.
type eventPost struct {
	Worker string                   `json:"worker"`
	Index  int                      `json:"index"`
	Kind   string                   `json:"kind"`
	Sample *experiment.SeriesSample `json:"sample,omitempty"`
}

// resultPost delivers a finished cell: its summary, or the error that
// stopped it. Digest double-checks the worker and coordinator agree on
// which cell this is.
type resultPost struct {
	Worker  string              `json:"worker"`
	Index   int                 `json:"index"`
	Digest  string              `json:"digest"`
	Summary *experiment.Summary `json:"summary,omitempty"`
	Error   string              `json:"error,omitempty"`
}

// okReply acknowledges an event or result post. Done is set on result
// acknowledgements when the grid is complete, letting the worker that
// delivered the last summary exit instead of asking a possibly
// already-closed coordinator for its next lease.
type okReply struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// WorkerBudget applies the two-level parallelism guard shared by the local
// and fleet execution paths: workers × shards must not oversubscribe the
// machine. An explicitly-set worker count that does is a usage error; an
// unset one is derated to cores/shards so the default stays "use the
// machine once", not shards times over. On the fleet path the shard count
// is the study's own (the worker discovers it at join time): cells must run
// with the coordinator's shard setting or their results would not be
// byte-identical to a local run of the same spec.
func WorkerBudget(workers int, explicit bool, shards, cores int) (int, error) {
	if shards > 1 {
		if explicit && workers > 1 && workers*shards > cores {
			return 0, fmt.Errorf("%w: -workers %d × -shards %d exceeds GOMAXPROCS (%d); lower one of them",
				ErrOversubscribed, workers, shards, cores)
		}
		if !explicit {
			workers = cores / shards
			if workers < 1 {
				workers = 1
			}
		}
	}
	if workers <= 0 {
		workers = cores
	}
	return workers, nil
}
