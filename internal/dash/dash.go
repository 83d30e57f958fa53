// Package dash serves a live, dependency-free study dashboard over HTTP.
//
// A Server is a study.Observer: wire it into study.Run with WithObserver
// and every grid cell's lifecycle and time-series buckets stream to any
// number of browsers over Server-Sent Events, while JSON endpoints expose
// the same state for scripts (`/api/study`, `/api/runs`, `/api/series`).
// Everything is stdlib: net/http for transport, an embedded HTML page for
// the UI, hand-rolled SSE framing.
//
// Observer callbacks run on the simulation goroutines, so the hot path
// never blocks: each event is marshalled once and offered to every
// subscriber's bounded buffer with a non-blocking send. A slow or stalled
// browser loses events — counted per subscriber and reported on its stream
// as a `drop` notice — never slows the study.
package dash

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/study"
)

// defaultSubBuffer is the per-subscriber event buffer. At one run event per
// cell transition plus one sample per series bucket, a whole mid-size study
// fits; a browser has to stall for a while to start dropping.
const defaultSubBuffer = 256

// runState tracks one grid cell through its lifecycle.
type runState struct {
	Info       study.RunInfo
	Status     string // "pending" | "running" | "done" | "failed"
	Continuity float64
	Err        string
	StartedAt  time.Time
	ElapsedMs  int64
	Samples    []experiment.SeriesSample
}

// Server is the dashboard: an http.Server bound to its listener, the
// study's observed state, and the SSE subscriber set.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	quit chan struct{}
	wg   sync.WaitGroup

	// subBuffer sizes each subscriber's event channel; tests shrink it to
	// force drops without megabytes of traffic.
	subBuffer int

	mu        sync.Mutex
	studyName string
	startedAt time.Time
	runs      []runState
	notes     []noteView
	subs      map[*subscriber]struct{}
}

// New binds the dashboard to addr (host:port; port 0 picks a free one) and
// starts serving. The returned Server has no study yet — BeginStudy
// installs one — but the page and APIs respond immediately.
func New(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dash: %w", err)
	}
	s := &Server{
		ln:        ln,
		quit:      make(chan struct{}),
		subBuffer: defaultSubBuffer,
		subs:      make(map[*subscriber]struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/api/study", s.handleStudy)
	mux.HandleFunc("/api/runs", s.handleRuns)
	mux.HandleFunc("/api/series", s.handleSeries)
	mux.HandleFunc("/api/fleet", s.handleFleet)
	mux.HandleFunc("/events", s.handleEvents)
	s.srv = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve returns on Close; anything else would be a programming
		// error surfaced by the first request instead.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr is the bound address, e.g. "127.0.0.1:46213" after ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close tears the dashboard down: wakes every SSE handler, closes the
// listener and all connections, and waits for the handlers to return, so a
// caller observing Close has no dashboard goroutines left.
func (s *Server) Close() error {
	close(s.quit)
	// http.Server.Close (not Shutdown): SSE handlers hold their
	// connections open forever, so graceful shutdown would never finish.
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// BeginStudy installs the study the observer callbacks will report
// against: every grid cell starts pending, enumerated by the same RunInfos
// the study layer hands to observers, so indices always line up.
func (s *Server) BeginStudy(st *study.Study) error {
	infos, err := st.RunInfos()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.studyName = st.Name
	s.startedAt = time.Now()
	s.runs = make([]runState, len(infos))
	for i, info := range infos {
		s.runs[i] = runState{Info: info, Status: "pending"}
	}
	ev := event("study", s.studyJSONLocked())
	s.mu.Unlock()
	s.broadcast(ev)
	return nil
}

// Note records one fleet-level event (a worker joining, a lease expiring,
// cells restored from a checkpoint) and streams it to every browser. Fleet
// notes sit outside the cell grid: they narrate the machinery executing the
// study, not the study itself. Kind is a short category ("worker", "lease",
// "spool"); text is the human line. Safe for concurrent use.
func (s *Server) Note(kind, text string) {
	s.mu.Lock()
	n := noteView{Kind: kind, Text: text, TMs: time.Since(s.startedAt).Milliseconds()}
	if s.startedAt.IsZero() {
		n.TMs = 0
	}
	s.notes = append(s.notes, n)
	ev := event("fleet", n)
	s.mu.Unlock()
	s.broadcast(ev)
}

// --- study.Observer ---

func (s *Server) OnRunStart(info study.RunInfo) {
	s.mu.Lock()
	if info.Index >= len(s.runs) {
		s.mu.Unlock()
		return
	}
	r := &s.runs[info.Index]
	r.Info = info
	r.Status = "running"
	r.StartedAt = time.Now()
	ev := event("run", s.runJSONLocked(info.Index))
	s.mu.Unlock()
	s.broadcast(ev)
}

func (s *Server) OnRunDone(info study.RunInfo, sum experiment.Summary, err error) {
	s.mu.Lock()
	if info.Index >= len(s.runs) {
		s.mu.Unlock()
		return
	}
	r := &s.runs[info.Index]
	if err != nil {
		r.Status = "failed"
		r.Err = err.Error()
	} else {
		r.Status = "done"
		r.Continuity = sum.MeanContinuity
	}
	if !r.StartedAt.IsZero() {
		r.ElapsedMs = time.Since(r.StartedAt).Milliseconds()
	}
	ev := event("run", s.runJSONLocked(info.Index))
	s.mu.Unlock()
	s.broadcast(ev)
}

func (s *Server) OnSample(info study.RunInfo, sample experiment.SeriesSample) {
	s.mu.Lock()
	if info.Index >= len(s.runs) {
		s.mu.Unlock()
		return
	}
	s.runs[info.Index].Samples = append(s.runs[info.Index].Samples, sample)
	ev := event("sample", sampleJSON(info.Index, sample))
	s.mu.Unlock()
	s.broadcast(ev)
}

// --- JSON views ---

type studyView struct {
	Name      string `json:"name"`
	Total     int    `json:"total"`
	Pending   int    `json:"pending"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	ElapsedMs int64  `json:"elapsed_ms"`
	// EtaMs extrapolates the remaining wall time from the mean duration of
	// finished cells; -1 until the first cell finishes.
	EtaMs int64 `json:"eta_ms"`
}

// runView is one cell of /api/runs and of a `run` event: the cell's
// study.Point spelled in the API's lower-case names, plus its live state.
type runView struct {
	Index      int     `json:"index"`
	Label      string  `json:"label"`
	App        string  `json:"app"`
	Strategy   string  `json:"strategy,omitempty"`
	Scenario   string  `json:"scenario,omitempty"`
	Variant    string  `json:"variant,omitempty"`
	QueueDepth int     `json:"queue_depth,omitempty"`
	Seed       int64   `json:"seed"`
	Worker     string  `json:"worker,omitempty"`
	Status     string  `json:"status"`
	Continuity float64 `json:"continuity"`
	Error      string  `json:"error,omitempty"`
	ElapsedMs  int64   `json:"elapsed_ms"`
	Samples    int     `json:"samples"`
}

// noteView is one fleet note: machinery narration alongside the cell grid.
type noteView struct {
	Kind string `json:"kind"`
	Text string `json:"text"`
	TMs  int64  `json:"t_ms"`
}

type sampleView struct {
	Run        int     `json:"run"`
	TMs        int64   `json:"t_ms"`
	Online     int     `json:"online"`
	Continuity float64 `json:"continuity"`
	IntraASPct float64 `json:"intra_as_pct"`
	VideoKbps  float64 `json:"video_kbps"`
	TrackerUp  bool    `json:"tracker_up"`
}

func (s *Server) studyJSONLocked() studyView {
	v := studyView{Name: s.studyName, Total: len(s.runs), EtaMs: -1}
	var doneMs int64
	for _, r := range s.runs {
		switch r.Status {
		case "running":
			v.Running++
		case "done":
			v.Done++
			doneMs += r.ElapsedMs
		case "failed":
			v.Failed++
			doneMs += r.ElapsedMs
		default:
			v.Pending++
		}
	}
	if !s.startedAt.IsZero() {
		v.ElapsedMs = time.Since(s.startedAt).Milliseconds()
	}
	if fin := v.Done + v.Failed; fin > 0 {
		v.EtaMs = doneMs / int64(fin) * int64(v.Total-fin)
	}
	return v
}

func (s *Server) runJSONLocked(i int) runView {
	r := s.runs[i]
	p := r.Info.Point
	return runView{
		Index: p.Index, Label: p.Label(),
		App: p.App, Strategy: p.Strategy, Scenario: p.Scenario,
		Variant: p.Variant, QueueDepth: p.QueueDepth, Seed: p.Seed,
		Worker: r.Info.Worker, Status: r.Status,
		Continuity: r.Continuity, Error: r.Err,
		ElapsedMs: r.ElapsedMs, Samples: len(r.Samples),
	}
}

func sampleJSON(run int, s experiment.SeriesSample) sampleView {
	return sampleView{
		Run: run, TMs: s.T.Milliseconds(), Online: s.Online,
		Continuity: s.Continuity, IntraASPct: s.IntraASPct,
		VideoKbps: s.VideoKbps, TrackerUp: s.TrackerUp,
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleStudy(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	v := s.studyJSONLocked()
	s.mu.Unlock()
	writeJSON(w, v)
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]runView, len(s.runs))
	for i := range s.runs {
		views[i] = s.runJSONLocked(i)
	}
	s.mu.Unlock()
	writeJSON(w, views)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("run"))
	s.mu.Lock()
	if err != nil || idx < 0 || idx >= len(s.runs) {
		s.mu.Unlock()
		http.Error(w, "bad or missing ?run index", http.StatusBadRequest)
		return
	}
	views := make([]sampleView, len(s.runs[idx].Samples))
	for i, smp := range s.runs[idx].Samples {
		views[i] = sampleJSON(idx, smp)
	}
	s.mu.Unlock()
	writeJSON(w, views)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]noteView, len(s.notes))
	copy(views, s.notes)
	s.mu.Unlock()
	writeJSON(w, views)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
