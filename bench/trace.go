package main

import (
	"sync"
	"time"
)

// span is one timed interval at a layer boundary the harness itself calls
// across. Parent is the id of the span that caused it (0 = none); times are
// nanoseconds since the tracer was made.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the parent process writes them out when
// the benchmark ends. A disabled tracer records nothing, so the untraced
// rounds pay one branch per boundary.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
}
